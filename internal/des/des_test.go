package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("unit constants inconsistent")
	}
	if Hour != 3600*Second {
		t.Fatalf("Hour = %d", Hour)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (90 * Minute).Hours(); got != 1.5 {
		t.Errorf("Hours() = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(20, PrioKernel, func() { order = append(order, 3) })
	s.Schedule(10, PrioKernel, func() { order = append(order, 1) })
	s.Schedule(10, PrioDispatch, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 20 {
		t.Errorf("Now() = %v, want 20", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, PrioKernel, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestTieBreakPriorities(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(1, PrioObserver, func() { order = append(order, "observer") })
	s.Schedule(1, PrioInject, func() { order = append(order, "inject") })
	s.Schedule(1, PrioDispatch, func() { order = append(order, "dispatch") })
	s.Schedule(1, PrioNetwork, func() { order = append(order, "network") })
	s.Schedule(1, PrioKernel, func() { order = append(order, "kernel") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"inject", "network", "kernel", "dispatch", "observer"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(10, PrioKernel, func() { fired = true })
	if !s.Scheduled(e) {
		t.Error("Scheduled() = false for a queued event")
	}
	s.Cancel(e)
	s.Cancel(e) // double cancel is a no-op
	if s.Scheduled(e) {
		t.Error("Scheduled() = true after Cancel")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
	s.Cancel(Event{}) // the zero handle is a no-op
}

func TestCancelFromCallback(t *testing.T) {
	s := New()
	fired := false
	var e Event
	e = s.Schedule(10, PrioKernel, func() { fired = true })
	s.Schedule(5, PrioKernel, func() { s.Cancel(e) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event canceled mid-run still fired")
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var at Time
	s.Schedule(100, PrioKernel, func() {
		s.After(50, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(100, PrioKernel, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.Schedule(50, PrioKernel, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	New().Schedule(1, PrioKernel, nil)
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.Schedule(at, PrioKernel, func() { fired = append(fired, at) })
	}
	if err := s.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || s.Now() != 25 {
		t.Fatalf("fired=%v now=%v, want 2 events and now=25", fired, s.Now())
	}
	// Inclusive boundary.
	if err := s.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || s.Now() != 30 {
		t.Fatalf("fired=%v now=%v, want 3 events and now=30", fired, s.Now())
	}
	if err := s.RunUntil(29); err == nil {
		t.Error("RunUntil in the past did not error")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		s.Schedule(i, PrioKernel, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run() = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	// Run resumes after a stop.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

func TestNextEventAt(t *testing.T) {
	s := New()
	if s.NextEventAt() != MaxTime {
		t.Error("NextEventAt on empty queue != MaxTime")
	}
	e := s.Schedule(42, PrioKernel, func() {})
	if s.NextEventAt() != 42 {
		t.Errorf("NextEventAt = %v, want 42", s.NextEventAt())
	}
	s.Cancel(e)
	if s.NextEventAt() != MaxTime {
		t.Error("NextEventAt ignores cancellation")
	}
}

func TestFiredAndPending(t *testing.T) {
	s := New()
	s.Schedule(1, PrioKernel, func() {})
	s.Schedule(2, PrioKernel, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Fired() != 2 {
		t.Errorf("Fired = %d, want 2", s.Fired())
	}
}

func TestHeapOrderProperty(t *testing.T) {
	// Property: for any set of (time, prio) pairs, execution order is
	// sorted by (time, prio, insertion).
	check := func(times []uint16, prios []int8) bool {
		s := New()
		type key struct {
			at   Time
			prio int
			seq  int
		}
		var got []key
		n := len(times)
		if len(prios) < n {
			n = len(prios)
		}
		for i := 0; i < n; i++ {
			at := Time(times[i])
			prio := int(prios[i])
			seq := i
			s.Schedule(at, prio, func() { got = append(got, key{at, prio, seq}) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.at > b.at {
				return false
			}
			if a.at == b.at && a.prio > b.prio {
				return false
			}
			if a.at == b.at && a.prio == b.prio && a.seq > b.seq {
				return false
			}
		}
		return len(got) == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(7).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRandIndexedDeterminism(t *testing.T) {
	// Pure function of (seed, idx): two derivations of the same stream
	// are identical, whatever order they are created in.
	a := NewRandIndexed(42, 17)
	_ = NewRandIndexed(42, 3) // unrelated derivation must not perturb anything
	b := NewRandIndexed(42, 17)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, idx) diverged")
		}
	}
}

func TestRandIndexedDecorrelation(t *testing.T) {
	// Nearby indices and nearby seeds must yield unrelated streams.
	base := NewRandIndexed(42, 0)
	draws := make([]uint64, 64)
	for i := range draws {
		draws[i] = base.Uint64()
	}
	for _, other := range []*Rand{
		NewRandIndexed(42, 1), NewRandIndexed(43, 0), NewRandIndexed(0, 42),
	} {
		same := 0
		for i := range draws {
			if other.Uint64() == draws[i] {
				same++
			}
		}
		if same > 0 {
			t.Errorf("adjacent stream collided on %d of %d draws", same, len(draws))
		}
	}
}

func TestRandIndexed2Determinism(t *testing.T) {
	// Pure function of (seed, stream, idx): derivation order is
	// irrelevant, and the two-level family never aliases the one-level
	// family or its own neighbours.
	// A value reseeded in place, after draws on another stream, draws
	// the same as a fresh one.
	a := NewRandIndexed2(42, 7, 17)
	_ = NewRandIndexed2(42, 9, 3) // unrelated derivation must not perturb anything
	b := NewRandIndexed2(42, 7, 17)
	var c Rand
	c.SeedIndexed2(42, 9, 3)
	c.Uint64()
	c.SeedIndexed2(42, 7, 17)
	for i := 0; i < 1000; i++ {
		if x := a.Uint64(); x != b.Uint64() || x != c.Uint64() {
			t.Fatal("same (seed, stream, idx) diverged")
		}
	}
	base := NewRandIndexed2(42, 7, 0)
	draws := make([]uint64, 64)
	for i := range draws {
		draws[i] = base.Uint64()
	}
	for _, other := range []*Rand{
		NewRandIndexed2(42, 7, 1), NewRandIndexed2(42, 8, 0),
		NewRandIndexed2(43, 7, 0), NewRandIndexed2(42, 0, 7),
		NewRandIndexed(42, 7), NewRandIndexed(42, 0),
	} {
		same := 0
		for i := range draws {
			if other.Uint64() == draws[i] {
				same++
			}
		}
		if same > 0 {
			t.Errorf("adjacent two-level stream collided on %d of %d draws", same, len(draws))
		}
	}
}

func TestRandSplitIndependence(t *testing.T) {
	parent := NewRand(1)
	child := parent.Split()
	// The child must not replay the parent's stream.
	p := NewRand(1)
	p.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatal("split child mirrors parent stream")
		}
		_ = p.Uint64() // desynchronize deliberately
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnUniform(t *testing.T) {
	r := NewRand(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(5)
	const rate, draws = 2.0, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("Exp returned negative %v", x)
		}
		sum += x
	}
	mean := sum / draws
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestRandExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	NewRand(1).Exp(0)
}

func TestRandExpTime(t *testing.T) {
	r := NewRand(9)
	// rate 1/hour: mean should be about an hour.
	var sum Time
	const draws = 50000
	for i := 0; i < draws; i++ {
		d := r.ExpTime(1.0)
		if d < 0 {
			t.Fatalf("ExpTime negative: %v", d)
		}
		sum += d / draws
	}
	if h := sum.Hours(); math.Abs(h-1) > 0.05 {
		t.Errorf("ExpTime mean = %v hours, want ~1", h)
	}
	// Astronomically small rates saturate instead of overflowing.
	if d := r.ExpTime(1e-300); d != MaxTime {
		t.Errorf("ExpTime tiny rate = %v, want MaxTime", d)
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(13)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestRandBool(t *testing.T) {
	r := NewRand(17)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if got := float64(hits) / draws; math.Abs(got-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %v", got)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRand(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.Schedule(Time(j%97), PrioKernel, func() {})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
