package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/des"
)

func TestKeyString(t *testing.T) {
	cases := []struct {
		k    Key
		want string
	}{
		{Key{Name: "a"}, "a"},
		{Key{Name: "a", Node: "n1"}, "a{node=n1}"},
		{Key{Name: "a", Node: "n1", Task: "t", Mechanism: "m"}, "a{node=n1,task=t,mechanism=m}"},
		{Key{Name: "a", Mechanism: "m"}, "a{mechanism=m}"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	if g.Value() != 0 {
		t.Errorf("unset gauge = %g, want 0", g.Value())
	}
	g.SetMax(-2) // first SetMax records even a negative value
	if g.Value() != -2 {
		t.Errorf("gauge after SetMax(-2) = %g, want -2", g.Value())
	}
	g.SetMax(-5)
	if g.Value() != -2 {
		t.Errorf("gauge after SetMax(-5) = %g, want -2 (max kept)", g.Value())
	}
	g.Set(1)
	g.SetMax(7)
	if g.Value() != 7 {
		t.Errorf("gauge = %g, want 7", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1106 {
		t.Errorf("count/sum = %d/%d, want 6/1106", h.Count(), h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", h.Min(), h.Max())
	}
	if got := h.Mean(); got < 184 || got > 185 {
		t.Errorf("mean = %g, want ~184.3", got)
	}
	// Median falls in the bucket of 2..3; upper bound 3.
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	// p99 must clamp to the observed max.
	if got := h.Quantile(0.99); got != 1000 {
		t.Errorf("p99 = %d, want 1000 (clamped to max)", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
	// A single large sample: quantile clamps to min too.
	var one Histogram
	one.Observe(5)
	if got := one.Quantile(0.01); got != 5 {
		t.Errorf("single-sample p1 = %d, want 5", got)
	}
}

func TestRegistryLookupsAndTotals(t *testing.T) {
	r := NewRegistry()
	k1 := Key{Name: "det", Task: "a", Mechanism: "comparison"}
	k2 := Key{Name: "det", Task: "b", Mechanism: "comparison"}
	k3 := Key{Name: "det", Task: "a", Mechanism: "vote"}
	r.Counter(k1).Add(2)
	r.Counter(k2).Add(3)
	r.Counter(k3).Inc()
	r.Counter(Key{Name: "other"}).Add(100)
	if got := r.CounterValue(k1); got != 2 {
		t.Errorf("CounterValue = %d, want 2", got)
	}
	if got := r.CounterValue(Key{Name: "absent"}); got != 0 {
		t.Errorf("CounterValue(absent) = %d, want 0", got)
	}
	if got := r.CounterTotal("det"); got != 6 {
		t.Errorf("CounterTotal = %d, want 6", got)
	}
	want := map[string]uint64{"comparison": 5, "vote": 1}
	if got := r.MechanismCounts("det"); !reflect.DeepEqual(got, want) {
		t.Errorf("MechanismCounts = %v, want %v", got, want)
	}
}

func TestRegistryMergeOrderIndependent(t *testing.T) {
	build := func() (*Registry, *Registry) {
		a, b := NewRegistry(), NewRegistry()
		a.Counter(Key{Name: "c"}).Add(2)
		b.Counter(Key{Name: "c"}).Add(5)
		a.Gauge(Key{Name: "g"}).Set(3)
		b.Gauge(Key{Name: "g"}).Set(9)
		a.Histogram(Key{Name: "h"}).Observe(10)
		b.Histogram(Key{Name: "h"}).Observe(600)
		b.Histogram(Key{Name: "h"}).Observe(2)
		return a, b
	}
	a1, b1 := build()
	m1 := NewRegistry()
	m1.Merge(a1)
	m1.Merge(b1)
	m1.Merge(nil) // no-op

	a2, b2 := build()
	m2 := NewRegistry()
	m2.Merge(b2)
	m2.Merge(a2)

	if m1.Digest() != m2.Digest() {
		t.Fatalf("merge order changed digest: %x vs %x", m1.Digest(), m2.Digest())
	}
	if got := m1.CounterValue(Key{Name: "c"}); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	if got := m1.Gauge(Key{Name: "g"}).Value(); got != 9 {
		t.Errorf("merged gauge = %g, want 9 (max)", got)
	}
	h := m1.Histogram(Key{Name: "h"})
	if h.Count() != 3 || h.Min() != 2 || h.Max() != 600 {
		t.Errorf("merged histogram count/min/max = %d/%d/%d, want 3/2/600",
			h.Count(), h.Min(), h.Max())
	}
}

func TestSnapshotCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge(Key{Name: "b"}).Set(1)
	r.Counter(Key{Name: "a", Node: "n2"}).Inc()
	r.Counter(Key{Name: "a", Node: "n1"}).Inc()
	r.Histogram(Key{Name: "a", Node: "n1", Task: "t"}).Observe(1)
	points := r.Snapshot()
	var order []string
	for _, p := range points {
		order = append(order, p.Key.String()+"/"+p.Type)
	}
	want := []string{"a{node=n1}/counter", "a{node=n1,task=t}/histogram", "a{node=n2}/counter", "b/gauge"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("snapshot order = %v, want %v", order, want)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(1); k < kindCount; k++ {
		name := k.String()
		if strings.Contains(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Errorf("ParseKind(%q) = %v/%v, want %v", name, back, ok, k)
		}
		if kindMetricNames[k] == "" {
			t.Errorf("kind %v has no metric series name", k)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 42 * des.Microsecond, Kind: KindErrorDetected, Node: "n1",
		Task: "T", Copy: 2, Detail: "illegal-opcode"}
	s := e.String()
	for _, want := range []string{"error-detected", "n1", "T", "copy=2", "illegal-opcode"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestCollectorEmitAndLimits(t *testing.T) {
	c := NewCollector("n1")
	if c.NodeLabel() != "n1" {
		t.Errorf("node label = %q", c.NodeLabel())
	}
	c.SetEventLimit(2)
	c.Emit(Event{Kind: KindRelease, Task: "T", Detail: "critical"})
	c.Emit(Event{Kind: KindErrorDetected, Task: "T", Detail: "trap"})
	c.Emit(Event{Kind: KindCommit, Task: "T"}) // over the cap: dropped, still counted
	if len(c.Events()) != 2 {
		t.Fatalf("events retained = %d, want 2", len(c.Events()))
	}
	if c.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", c.Dropped())
	}
	if c.Events()[0].Node != "n1" {
		t.Errorf("node not stamped: %q", c.Events()[0].Node)
	}
	// Metrics count all three emissions, with mechanism label only on
	// the detection event.
	reg := c.Registry()
	if got := reg.CounterValue(Key{Name: "events.release", Node: "n1", Task: "T"}); got != 1 {
		t.Errorf("events.release = %d, want 1", got)
	}
	if got := reg.CounterValue(Key{Name: "events.error_detected", Node: "n1", Task: "T", Mechanism: "trap"}); got != 1 {
		t.Errorf("events.error_detected{mechanism=trap} = %d, want 1", got)
	}
	if got := reg.CounterValue(Key{Name: "events.commit", Node: "n1", Task: "T"}); got != 1 {
		t.Errorf("events.commit = %d, want 1 (dropped events still count)", got)
	}

	// Disabled events: metrics only.
	d := NewCollector("")
	d.SetEventLimit(-1)
	d.Emit(Event{Kind: KindRelease})
	if len(d.Events()) != 0 {
		t.Error("disabled stream retained events")
	}
	if got := d.Registry().CounterTotal("events.release"); got != 1 {
		t.Errorf("metrics with disabled stream = %d, want 1", got)
	}
	d.SetEventLimit(0) // re-enable, unlimited
	d.Emit(Event{Kind: KindRelease})
	if len(d.Events()) != 1 {
		t.Error("re-enabled stream did not retain")
	}

	// Nil collector: all methods are no-ops.
	var nc *Collector
	nc.Emit(Event{Kind: KindRelease})
	if nc.Events() != nil || nc.Dropped() != 0 || nc.Labeled("x") != nil {
		t.Error("nil collector misbehaved")
	}
}

// TestEventCollector pins the events-only collector: Emit keeps every
// event, stamped with the node label, and counts nothing; there is no
// registry, series lookups return nil series that ignore updates, and
// AttachSimulator leaves the simulator alone — an earlier hook stays.
func TestEventCollector(t *testing.T) {
	c := NewEventCollector("n1")
	c.Emit(Event{Kind: KindRelease, Task: "T", Detail: "critical"})
	c.Emit(Event{Kind: KindErrorDetected, Task: "T", Detail: "trap"})
	c.Emit(Event{Kind: KindCommit, Task: "T"})
	if got := c.Events(); len(got) != 3 || got[0].Node != "n1" || c.Dropped() != 0 || !c.KeepsEvents() {
		t.Fatalf("events-only collector kept %v (%d dropped)", got, c.Dropped())
	}
	if c.Registry() != nil {
		t.Fatal("events-only collector has a registry")
	}
	ctr, g, h := c.Counter("x", "", ""), c.Gauge("g", ""), c.Histogram("h", "")
	if ctr != nil || g != nil || h != nil {
		t.Fatal("events-only collector resolved a series")
	}
	ctr.Inc()
	ctr.Add(2)
	g.Set(1)
	g.SetMax(2)
	h.Observe(3)

	full := NewCollector("sim")
	sim := des.New()
	AttachSimulator(full, sim)
	AttachSimulator(c, sim)
	sim.Schedule(0, des.PrioKernel, func() {})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := full.Registry().CounterValue(Key{Name: "des.events_fired", Node: "sim", Mechanism: "kernel"}); got != 1 {
		t.Errorf("events_fired{kernel} = %d after attaching an events-only collector, want 1", got)
	}
}

func TestLabeledViewsShareState(t *testing.T) {
	c := NewCollector("root")
	a := c.Labeled("a")
	b := c.Labeled("b")
	a.Emit(Event{Kind: KindRelease, Task: "T"})
	b.Emit(Event{Kind: KindRelease, Task: "T"})
	b.Counter("x", "", "").Inc()
	if got := len(c.Events()); got != 2 {
		t.Fatalf("shared stream has %d events, want 2", got)
	}
	if c.Events()[0].Node != "a" || c.Events()[1].Node != "b" {
		t.Errorf("labels = %q,%q", c.Events()[0].Node, c.Events()[1].Node)
	}
	if got := c.Registry().CounterValue(Key{Name: "x", Node: "b"}); got != 1 {
		t.Errorf("labeled counter = %d, want 1", got)
	}
	// The collector-scoped helpers stamp the node label.
	a.Gauge("g", "t").Set(2)
	a.Histogram("h", "t").Observe(3)
	if c.Registry().Gauge(Key{Name: "g", Node: "a", Task: "t"}).Value() != 2 {
		t.Error("gauge helper lost node label")
	}
	if c.Registry().Histogram(Key{Name: "h", Node: "a", Task: "t"}).Count() != 1 {
		t.Error("histogram helper lost node label")
	}
}

func TestAttachSimulator(t *testing.T) {
	c := NewCollector("sim")
	sim := des.New()
	AttachSimulator(c, sim)
	AttachSimulator(nil, sim) // nil-safe: must not detach or panic
	sim.Schedule(0, des.PrioInject, func() {})
	sim.Schedule(1, des.PrioKernel, func() {})
	sim.Schedule(1, des.PrioDispatch, func() {})
	sim.Schedule(2, des.PrioObserver, func() {})
	sim.Schedule(2, des.PrioNetwork, func() {})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	reg := c.Registry()
	for band, want := range map[string]uint64{
		"inject": 1, "kernel": 1, "dispatch": 1, "observer": 1, "network": 1,
	} {
		if got := reg.CounterValue(Key{Name: "des.events_fired", Node: "sim", Mechanism: band}); got != want {
			t.Errorf("events_fired{%s} = %d, want %d", band, got, want)
		}
	}
	if peak := reg.Gauge(Key{Name: "des.pending_peak", Node: "sim"}).Value(); peak < 1 {
		t.Errorf("pending_peak = %g, want >= 1", peak)
	}
}

func TestEventsJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{At: 0, Kind: KindRelease, Node: "n", Task: "T", Detail: "critical"},
		{At: 100, Kind: KindCopyStart, Task: "T", Copy: 1},
		{At: 250, Kind: KindErrorDetected, Task: "T", Copy: 2, Detail: "trap", Trial: 7},
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Errorf("round trip mismatch:\n%v\n%v", events, back)
	}
	if _, err := ReadEventsJSONL(strings.NewReader(`{"at":0,"kind":"nope"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ReadEventsJSONL(strings.NewReader(`{bad json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestDigestEvents(t *testing.T) {
	a := []Event{{At: 1, Kind: KindRelease, Task: "T"}}
	b := []Event{{At: 1, Kind: KindRelease, Task: "T"}}
	if DigestEvents(a) != DigestEvents(b) {
		t.Error("identical streams digest differently")
	}
	b[0].Copy = 1
	if DigestEvents(a) == DigestEvents(b) {
		t.Error("differing streams digest identically")
	}
	// Field boundaries matter: ("ab","c") must differ from ("a","bc").
	x := []Event{{Node: "ab", Task: "c"}}
	y := []Event{{Node: "a", Task: "bc"}}
	if DigestEvents(x) == DigestEvents(y) {
		t.Error("field-boundary collision in digest")
	}
}

func TestRegistryCSVAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter(Key{Name: "c", Node: "n,1"}).Add(3) // comma forces quoting
	r.Histogram(Key{Name: "h"}).Observe(10)
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3 (header + 2 rows):\n%s", len(lines), csv.String())
	}
	if lines[0] != "name,node,task,mechanism,type,value,count,sum,min,max,p50,p99" {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.Contains(csv.String(), `"n,1"`) {
		t.Errorf("comma field not quoted:\n%s", csv.String())
	}
	if got := csvField(`say "hi"`); got != `"say ""hi"""` {
		t.Errorf("csvField quote escape = %q", got)
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "c"`, `"type": "histogram"`, `"value": 3`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json missing %s:\n%s", want, js.String())
		}
	}
}

func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	r.Counter(Key{Name: "c"}).Inc()

	csvPath := filepath.Join(dir, "m.csv")
	if err := r.WriteMetricsFile(csvPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "name,node,task") {
		t.Errorf("csv file content:\n%s", data)
	}

	jsonPath := filepath.Join(dir, "m.json")
	if err := r.WriteMetricsFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		t.Errorf("json file content:\n%s", data)
	}

	evPath := filepath.Join(dir, "e.jsonl")
	events := []Event{{At: 1, Kind: KindCommit, Task: "T"}}
	if err := WriteEventsFile(evPath, events); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(evPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadEventsJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Errorf("file round trip mismatch: %v vs %v", events, back)
	}

	if err := r.WriteMetricsFile(filepath.Join(dir, "no/such/dir.csv")); err == nil {
		t.Error("WriteMetricsFile to missing dir succeeded")
	}
	if err := WriteEventsFile(filepath.Join(dir, "no/such/dir.jsonl"), nil); err == nil {
		t.Error("WriteEventsFile to missing dir succeeded")
	}
}

// invariantEvents builds a well-formed TEM release sequence.
func invariantEvents(task string) []Event {
	return []Event{
		{At: 0, Kind: KindRelease, Task: task, Detail: "critical"},
		{At: 1, Kind: KindCopyStart, Task: task, Copy: 1},
		{At: 2, Kind: KindCopyEnd, Task: task, Copy: 1},
		{At: 3, Kind: KindCopyStart, Task: task, Copy: 2},
		{At: 4, Kind: KindCopyEnd, Task: task, Copy: 2},
		{At: 5, Kind: KindCompareMatch, Task: task},
		{At: 6, Kind: KindCommit, Task: task, Detail: "ok"},
	}
}

func TestCheckInvariantsCleanStream(t *testing.T) {
	events := append(invariantEvents("A"), invariantEvents("B")...)
	if v := CheckInvariants(events); len(v) != 0 {
		t.Errorf("clean stream flagged: %v", v)
	}
}

func TestCheckInvariantsThirdCopyPath(t *testing.T) {
	// Mismatch then third copy and majority vote: legal.
	events := []Event{
		{Kind: KindRelease, Task: "T", Detail: "critical"},
		{Kind: KindCompareMismatch, Task: "T"},
		{Kind: KindCopyStart, Task: "T", Copy: 3},
		{Kind: KindVote, Task: "T", Detail: "majority found (copies 1,3)"},
		{Kind: KindCommit, Task: "T", Detail: "masked"},
	}
	if v := CheckInvariants(events); len(v) != 0 {
		t.Errorf("legal third-copy path flagged: %v", v)
	}
	// Speculative third copy: violation.
	bad := []Event{
		{Kind: KindRelease, Task: "T", Detail: "critical"},
		{Kind: KindCopyStart, Task: "T", Copy: 3},
	}
	v := CheckInvariants(bad)
	if len(v) != 1 || v[0].Rule != RuleThirdCopyNeedsError {
		t.Errorf("speculative third copy: %v", v)
	}
	if !strings.Contains(v[0].String(), RuleThirdCopyNeedsError) {
		t.Errorf("violation string: %q", v[0].String())
	}
}

func TestCheckInvariantsCommitNeedsAgreement(t *testing.T) {
	bad := []Event{
		{Kind: KindRelease, Task: "T", Detail: "critical"},
		{Kind: KindCommit, Task: "T"},
	}
	v := CheckInvariants(bad)
	if len(v) != 1 || v[0].Rule != RuleCommitNeedsAgreement {
		t.Errorf("agreement-less commit: %v", v)
	}
	// A failed vote does not count as agreement.
	bad2 := []Event{
		{Kind: KindRelease, Task: "T", Detail: "critical"},
		{Kind: KindVote, Task: "T", Detail: "no majority"},
		{Kind: KindCommit, Task: "T"},
	}
	v2 := CheckInvariants(bad2)
	if len(v2) != 1 || v2[0].Rule != RuleCommitNeedsAgreement {
		t.Errorf("commit after failed vote: %v", v2)
	}
	// Non-critical tasks commit without comparison.
	ok := []Event{
		{Kind: KindRelease, Task: "T", Detail: "non-critical"},
		{Kind: KindCommit, Task: "T"},
	}
	if v := CheckInvariants(ok); len(v) != 0 {
		t.Errorf("non-critical commit flagged: %v", v)
	}
}

func TestCheckInvariantsOmissionExcludesCommit(t *testing.T) {
	bad := []Event{
		{Kind: KindRelease, Task: "T", Detail: "critical"},
		{Kind: KindCompareMatch, Task: "T"},
		{Kind: KindCommit, Task: "T"},
		{Kind: KindOmission, Task: "T"},
	}
	v := CheckInvariants(bad)
	if len(v) != 1 || v[0].Rule != RuleOmissionExcludesCommit {
		t.Errorf("omission after commit: %v", v)
	}
	bad2 := []Event{
		{Kind: KindRelease, Task: "T", Detail: "critical"},
		{Kind: KindOmission, Task: "T"},
		{Kind: KindCompareMatch, Task: "T"},
		{Kind: KindCommit, Task: "T"},
	}
	v2 := CheckInvariants(bad2)
	if len(v2) != 1 || v2[0].Rule != RuleOmissionExcludesCommit {
		t.Errorf("commit after omission: %v", v2)
	}
	// A new release resets the state machine.
	ok := []Event{
		{Kind: KindRelease, Task: "T", Detail: "critical"},
		{Kind: KindOmission, Task: "T", Detail: "deadline"},
		{Kind: KindRelease, Task: "T", Detail: "critical"},
		{Kind: KindCompareMatch, Task: "T"},
		{Kind: KindCommit, Task: "T"},
	}
	if v := CheckInvariants(ok); len(v) != 0 {
		t.Errorf("release reset not honored: %v", v)
	}
}

func TestCheckNoCriticalOmission(t *testing.T) {
	events := []Event{
		{Kind: KindRelease, Task: "A", Detail: "critical"},
		{Kind: KindRelease, Task: "B", Detail: "non-critical"},
		{Kind: KindOmission, Task: "B"},
	}
	if v := CheckNoCriticalOmission(events); len(v) != 0 {
		t.Errorf("non-critical omission flagged: %v", v)
	}
	events = append(events, Event{Kind: KindOmission, Task: "A"})
	v := CheckNoCriticalOmission(events)
	if len(v) != 1 || v[0].Rule != RuleNoCriticalOmission {
		t.Errorf("critical omission: %v", v)
	}
}

func TestSplitByTrial(t *testing.T) {
	events := []Event{
		{At: 1, Trial: 1}, {At: 2, Trial: 2}, {At: 3, Trial: 1}, {At: 4},
	}
	byTrial := SplitByTrial(events)
	if len(byTrial) != 3 {
		t.Fatalf("groups = %d, want 3", len(byTrial))
	}
	if len(byTrial[1]) != 2 || byTrial[1][0].At != 1 || byTrial[1][1].At != 3 {
		t.Errorf("trial 1 order broken: %v", byTrial[1])
	}
	if len(byTrial[0]) != 1 {
		t.Errorf("trial 0 (non-campaign) = %v", byTrial[0])
	}
}

func TestPrioBand(t *testing.T) {
	cases := map[int]string{
		des.PrioInject:   "inject",
		des.PrioNetwork:  "network",
		des.PrioKernel:   "kernel",
		des.PrioDispatch: "dispatch",
		des.PrioObserver: "observer",
		-1000:            "inject",
		1000:             "observer",
	}
	for prio, want := range cases {
		if got := prioBand(prio); got != want {
			t.Errorf("prioBand(%d) = %q, want %q", prio, got, want)
		}
	}
}
