// The allocation gate in this file pins the TEM checker's fold: a warm
// checker reads a clean stream, from its start or resumed mid-way,
// without allocating. The race detector instruments allocations, so it
// only runs in non-race builds (CI runs it as a separate step).

//go:build !race

package obs_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestCheckerZeroAlloc checks clean golden streams — the fault-free
// golden trace and a fork session's golden run — with a warm checker,
// started fresh and resumed from the state halfway through, and
// requires zero allocations.
func TestCheckerZeroAlloc(t *testing.T) {
	s, err := fault.NewForkSession(fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true}), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]obs.Event{
		"golden/tem_happy": readTrace(t, "tem_happy"),
		"session-golden":   s.GoldenEvents(),
	}
	for name, events := range streams {
		if len(events) == 0 {
			t.Fatalf("%s: empty stream", name)
		}
		if vs := obs.CheckInvariants(events); len(vs) > 0 {
			t.Fatalf("%s: %v", name, vs)
		}
		var start, mid, c obs.Checker
		mid.Check(events[:len(events)/2], nil)
		var vs []obs.Violation
		for _, from := range []*obs.Checker{&start, &mid} {
			if n := testing.AllocsPerRun(100, func() {
				c.Resume(from)
				vs = c.Check(events, vs[:0])
			}); n != 0 {
				t.Errorf("%s, resumed at %d: %v allocations per check, want 0", name, from.Checked(), n)
			}
		}
	}
}
