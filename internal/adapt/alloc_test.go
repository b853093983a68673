// The race detector instruments allocations, so this gate only runs in
// non-race builds (CI runs it as a separate step).

//go:build !race

package adapt

import (
	"testing"

	"repro/internal/fault"
)

// TestPlanRoundZeroAllocPerTrial pins what drawing a round allocates:
// the stratum-index and spec slices it returns, sized up front, and
// nothing per trial, since one stream value is reseeded for each.
func TestPlanRoundZeroAllocPerTrial(t *testing.T) {
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true})
	e, err := newEngine(w, Config{Seed: 1, CIWidth: 0.002, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{16, 512, 4096} {
		alloc := e.allocate(size)
		if got := testing.AllocsPerRun(10, func() {
			if sis, specs := e.planRound(alloc); len(sis) != size || len(specs) != size {
				t.Fatalf("a round of %d drew %d trials", size, len(specs))
			}
		}); got != 2 {
			t.Errorf("drawing a round of %d trials allocates %v times, want 2", size, got)
		}
	}
}
