package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// ms converts milliseconds to des.Time for readable test fixtures.
func ms(v int64) des.Time { return des.Time(v) * des.Millisecond }

// classicSet is the textbook three-task example (Burns & Wellings):
// C/T/D in ms: (3, 20, 20), (10, 40, 40), (5, 80, 80) with rate-monotonic
// priorities. Worst-case response times by hand: 3, 13, 18.
func classicSet() []Task {
	return []Task{
		{Name: "a", C: ms(3), T: ms(20), D: ms(20), Priority: 3},
		{Name: "b", C: ms(10), T: ms(40), D: ms(40), Priority: 2},
		{Name: "c", C: ms(5), T: ms(80), D: ms(80), Priority: 1},
	}
}

func respOf(t *testing.T, rs []Response, name string) Response {
	t.Helper()
	for _, r := range rs {
		if r.Task.Name == name {
			return r
		}
	}
	t.Fatalf("no response for %q", name)
	return Response{}
}

func TestTaskValidate(t *testing.T) {
	good := Task{Name: "x", C: ms(1), T: ms(10), D: ms(10)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Task{
		"no name":     {C: ms(1), T: ms(10), D: ms(10)},
		"zero C":      {Name: "x", T: ms(10), D: ms(10)},
		"zero T":      {Name: "x", C: ms(1), D: ms(10)},
		"D > T":       {Name: "x", C: ms(1), T: ms(10), D: ms(20)},
		"C > D":       {Name: "x", C: ms(5), T: ms(10), D: ms(4)},
		"negative re": {Name: "x", C: ms(1), T: ms(10), D: ms(10), Recovery: -1},
	}
	for name, task := range cases {
		if err := task.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, task)
		}
	}
}

func TestValidateSet(t *testing.T) {
	if err := ValidateSet(nil); err == nil {
		t.Error("empty set accepted")
	}
	dup := []Task{
		{Name: "x", C: ms(1), T: ms(10), D: ms(10), Priority: 1},
		{Name: "x", C: ms(1), T: ms(10), D: ms(10), Priority: 2},
	}
	if err := ValidateSet(dup); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestAnalyzeClassicExample(t *testing.T) {
	rs, err := Analyze(classicSet())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]des.Time{"a": ms(3), "b": ms(13), "c": ms(18)}
	for name, r := range want {
		got := respOf(t, rs, name)
		if !got.Schedulable {
			t.Errorf("%s not schedulable", name)
		}
		if got.R != r {
			t.Errorf("R(%s) = %v, want %v", name, got.R, r)
		}
	}
}

func TestAnalyzeDuplicatePriorities(t *testing.T) {
	set := classicSet()
	set[1].Priority = set[0].Priority
	if _, err := Analyze(set); err == nil {
		t.Error("duplicate priorities accepted")
	}
}

func TestAnalyzeUnschedulable(t *testing.T) {
	// Utilization > 1 cannot be schedulable.
	set := []Task{
		{Name: "a", C: ms(15), T: ms(20), D: ms(20), Priority: 2},
		{Name: "b", C: ms(10), T: ms(25), D: ms(25), Priority: 1},
	}
	rs, err := Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if Schedulable(rs) {
		t.Error("overloaded set reported schedulable")
	}
	if respOf(t, rs, "a").Schedulable != true {
		t.Error("highest-priority task must still be schedulable")
	}
}

func TestUtilization(t *testing.T) {
	u := Utilization(classicSet())
	want := 3.0/20 + 10.0/40 + 5.0/80
	if math.Abs(u-want) > 1e-12 {
		t.Errorf("U = %v, want %v", u, want)
	}
}

func TestAssignDeadlineMonotonic(t *testing.T) {
	set := []Task{
		{Name: "slow", C: ms(1), T: ms(100), D: ms(100)},
		{Name: "fast", C: ms(1), T: ms(10), D: ms(10)},
		{Name: "mid", C: ms(1), T: ms(50), D: ms(50)},
	}
	out := AssignDeadlineMonotonic(set)
	prio := map[string]int{}
	for _, t2 := range out {
		prio[t2.Name] = t2.Priority
	}
	if !(prio["fast"] > prio["mid"] && prio["mid"] > prio["slow"]) {
		t.Errorf("priorities %v", prio)
	}
	// Input untouched.
	if set[0].Priority != 0 {
		t.Error("input mutated")
	}
}

func TestAssignByCriticality(t *testing.T) {
	set := []Task{
		{Name: "diagnostic", C: ms(1), T: ms(10), D: ms(10), Criticality: 1},
		{Name: "brake", C: ms(1), T: ms(100), D: ms(100), Criticality: 10},
	}
	out := AssignByCriticality(set)
	prio := map[string]int{}
	for _, t2 := range out {
		prio[t2.Name] = t2.Priority
	}
	// The paper's example: the brake request outranks the diagnostic even
	// though its deadline is longer.
	if !(prio["brake"] > prio["diagnostic"]) {
		t.Errorf("priorities %v", prio)
	}
}

func TestAnalyzeWithFaultsAddsRecoveryInterference(t *testing.T) {
	set := classicSet()
	for i := range set {
		set[i].Recovery = set[i].C // re-execution recovery
	}
	// With a fault at most once per 100 ms, task c's response grows by
	// the largest recovery among tasks at its level or above (10 ms).
	rs, err := AnalyzeWithFaults(set, ms(100))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		ft := respOf(t, rs, name)
		base := respOf(t, plain, name)
		if ft.R <= base.R {
			t.Errorf("%s: fault-tolerant R %v not above plain %v", name, ft.R, base.R)
		}
	}
	if !Schedulable(rs) {
		t.Error("set with ample slack reported unschedulable")
	}
	// c by hand: R = 5 + ⌈31/20⌉·3 + ⌈31/40⌉·10 + ⌈31/100⌉·10 = 31.
	if got := respOf(t, rs, "c"); got.R != ms(31) {
		t.Errorf("R(c) = %v, want 31ms", got.R)
	}
}

func TestAnalyzeWithFaultsDenseFaultsUnschedulable(t *testing.T) {
	set := classicSet()
	for i := range set {
		set[i].Recovery = set[i].C
	}
	rs, err := AnalyzeWithFaults(set, ms(1))
	if err != nil {
		t.Fatal(err)
	}
	if Schedulable(rs) {
		t.Error("a fault every 1 ms should overwhelm the set")
	}
	if _, err := AnalyzeWithFaults(set, 0); err == nil {
		t.Error("zero fault interval accepted")
	}
}

func TestMaxFaultRateOrdering(t *testing.T) {
	set := classicSet()
	for i := range set {
		set[i].Recovery = set[i].C
	}
	rate, err := MaxFaultRate(set)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate = %v", rate)
	}
	// The rate must be consistent: schedulable at the reported interval.
	interval := des.Time(float64(des.Hour) / rate)
	rs, err := AnalyzeWithFaults(set, interval)
	if err != nil {
		t.Fatal(err)
	}
	if !Schedulable(rs) {
		t.Errorf("not schedulable at reported max rate %v/h", rate)
	}
	// A tighter set tolerates fewer faults.
	tight := classicSet()
	for i := range tight {
		tight[i].C *= 2
		tight[i].Recovery = tight[i].C
	}
	tightRate, err := MaxFaultRate(tight)
	if err != nil {
		t.Fatal(err)
	}
	if tightRate >= rate {
		t.Errorf("tighter set tolerates %v/h >= %v/h", tightRate, rate)
	}
}

func TestMaxFaultRateZeroWhenNoSlack(t *testing.T) {
	// A set so loaded that even one recovery a year does not fit.
	set := []Task{
		{Name: "a", C: ms(10), T: ms(20), D: ms(20), Priority: 2, Recovery: ms(10)},
		{Name: "b", C: ms(9), T: ms(19), D: ms(19), Priority: 1, Recovery: ms(9)},
	}
	rate, err := MaxFaultRate(set)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Errorf("rate = %v, want 0", rate)
	}
}

func TestTEMTransform(t *testing.T) {
	ov := TEMOverheads{Compare: ms(1), Vote: ms(2)}
	set := []Task{
		{Name: "critical", C: ms(5), T: ms(50), D: ms(50), Criticality: 5},
		{Name: "logging", C: ms(3), T: ms(50), D: ms(50), Criticality: 0},
	}
	out := TEMTransform(set, ov)
	crit := out[0]
	if crit.C != ms(11) { // 2·5 + 1
		t.Errorf("critical C = %v, want 11ms", crit.C)
	}
	if crit.Recovery != ms(7) { // 5 + 2
		t.Errorf("critical recovery = %v, want 7ms", crit.Recovery)
	}
	log := out[1]
	if log.C != ms(3) || log.Recovery != 0 {
		t.Errorf("non-critical transformed: %+v", log)
	}
	// Input untouched.
	if set[0].C != ms(5) {
		t.Error("input mutated")
	}
}

func TestTEMSchedulabilityEndToEnd(t *testing.T) {
	// The paper's workflow: start from raw WCETs, apply TEM, check that
	// the doubled execution plus reserved recovery slack still meets all
	// deadlines at the anticipated fault rate.
	raw := []Task{
		{Name: "brake", C: ms(2), T: ms(20), D: ms(20), Criticality: 10},
		{Name: "slip", C: ms(3), T: ms(40), D: ms(40), Criticality: 8},
		{Name: "diag", C: ms(4), T: ms(160), D: ms(160), Criticality: 0},
	}
	tem := TEMTransform(raw, TEMOverheads{Compare: ms(1) / 10, Vote: ms(1) / 5})
	tem = AssignByCriticality(tem)
	rs, err := AnalyzeWithFaults(tem, ms(500))
	if err != nil {
		t.Fatal(err)
	}
	if !Schedulable(rs) {
		for _, r := range rs {
			t.Logf("%s: R=%v D=%v sched=%v", r.Task.Name, r.R, r.Task.D, r.Schedulable)
		}
		t.Fatal("TEM-transformed BBW-style set should be schedulable")
	}
}

func TestRTAPropertyResponseAtLeastC(t *testing.T) {
	// Property: for random schedulable-ish sets, R ≥ C and R is monotone
	// in added interference (removing the top task never increases
	// responses of the rest).
	check := func(cs [3]uint8, ts [3]uint8) bool {
		set := make([]Task, 0, 3)
		for i := 0; i < 3; i++ {
			c := des.Time(int(cs[i]%10)+1) * des.Millisecond
			period := des.Time(int(ts[i]%90)+20) * des.Millisecond
			if c > period {
				c = period
			}
			set = append(set, Task{
				Name: string(rune('a' + i)), C: c, T: period, D: period,
				Priority: 3 - i,
			})
		}
		rs, err := Analyze(set)
		if err != nil {
			return false
		}
		for _, r := range rs {
			if r.Schedulable && r.R < r.Task.C {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAnalyzeWithFaults(b *testing.B) {
	set := make([]Task, 0, 10)
	for i := 0; i < 10; i++ {
		set = append(set, Task{
			Name:     string(rune('a' + i)),
			C:        des.Time(i+1) * des.Millisecond,
			T:        des.Time(20*(i+1)) * des.Millisecond,
			D:        des.Time(20*(i+1)) * des.Millisecond,
			Priority: 10 - i,
			Recovery: des.Time(i+1) * des.Millisecond,
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := AnalyzeWithFaults(set, 500*des.Millisecond)
		if err != nil || !Schedulable(rs) {
			b.Fatal("unexpected analysis failure")
		}
	}
}
