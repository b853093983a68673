package fault

import (
	"reflect"
	"testing"

	"repro/internal/des"
)

func inWindows(wins []Interval, at des.Time) bool {
	for _, iv := range wins {
		if at >= iv.Start && at < iv.End {
			return true
		}
	}
	return false
}

// TestActivityWindowsExact pins the extracted kernel-activity set
// against live injections: a coin-free trial's record reports
// Kernel=true exactly when the injection instant observed
// ActivityKernel, so window membership must predict that flag — and
// the forced fail-silent outcome — at every boundary edge. A fork
// session's own windows must be the same set.
func TestActivityWindowsExact(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{Periods: 2, Compute: 8})
	wins, err := ActivityWindows(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) == 0 {
		t.Fatal("no kernel-activity windows: the workload must context-switch")
	}
	for i, iv := range wins {
		if iv.End <= iv.Start {
			t.Fatalf("window %d degenerate: %+v", i, iv)
		}
		if i > 0 && iv.Start <= wins[i-1].End {
			t.Fatalf("windows %d,%d not disjoint-sorted: %+v %+v", i-1, i, wins[i-1], iv)
		}
	}

	s, err := NewForkSession(w, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// The session's capture run merges the same switches by the same
	// rule, so its windows are the extracted set.
	if got := s.ActivityWindows(); !reflect.DeepEqual(got, wins) {
		t.Fatalf("session windows %v, ActivityWindows %v", got, wins)
	}
	start, end := w.InjectionWindow()
	probes := []des.Time{}
	for i, iv := range wins {
		if i >= 6 {
			break
		}
		probes = append(probes, iv.Start-1, iv.Start, iv.End-1, iv.End,
			(iv.Start+iv.End)/2)
	}
	for _, at := range probes {
		if at < start || at >= end {
			continue
		}
		rng := des.NewRandIndexed2(7, 1, uint64(at))
		f := DrawFaultAt(w, TargetRegister, at, rng)
		rec, err := s.RunTrial(TrialSpec{Fault: f})
		if err != nil {
			t.Fatal(err)
		}
		want := inWindows(wins, at)
		if rec.Kernel != want {
			t.Errorf("at %v: rec.Kernel = %v, windows say %v", at, rec.Kernel, want)
		}
		if want && rec.Outcome != FailSilent {
			t.Errorf("at %v: in-window outcome = %v, want FailSilent", at, rec.Outcome)
		}
	}
}

func TestComplementAndOverlap(t *testing.T) {
	wins := []Interval{{Start: 10, End: 20}, {Start: 30, End: 40}}
	cases := []struct {
		start, end des.Time
		overlap    des.Time
		free       []Interval
	}{
		{0, 50, 20, []Interval{{0, 10}, {20, 30}, {40, 50}}},
		{10, 20, 10, nil},
		{12, 18, 6, nil},
		{15, 35, 10, []Interval{{20, 30}}},
		{20, 30, 0, []Interval{{20, 30}}},
		{40, 45, 0, []Interval{{40, 45}}},
		{0, 10, 0, []Interval{{0, 10}}},
	}
	for _, c := range cases {
		if got := OverlapWidth(wins, c.start, c.end); got != c.overlap {
			t.Errorf("OverlapWidth([%d,%d)) = %d, want %d", c.start, c.end, got, c.overlap)
		}
		free := Complement(wins, c.start, c.end)
		if len(free) != len(c.free) {
			t.Errorf("Complement([%d,%d)) = %v, want %v", c.start, c.end, free, c.free)
			continue
		}
		var width des.Time
		for i, iv := range free {
			if iv != c.free[i] {
				t.Errorf("Complement([%d,%d))[%d] = %v, want %v", c.start, c.end, i, iv, c.free[i])
			}
			width += iv.Width()
		}
		if width+c.overlap != c.end-c.start {
			t.Errorf("free %d + overlap %d != window %d", width, c.overlap, c.end-c.start)
		}
	}
}
