// The allocation gate in this file pins the fork core's hottest path:
// a trial that ends on a golden suffix-table entry with no detection
// mechanism fired. The race detector instruments allocations, so it
// only runs in non-race builds (CI runs it as a separate step).

//go:build !race

package fault

import (
	"testing"

	"repro/internal/obs"
)

// TestRunTrialZeroAlloc runs the benchmark's seed-1 sampled trials on a
// warm session, keeps those that end on a golden entry with no
// mechanism, and requires RunTrial on them — restore, inject, boundary
// lookups, composition and classification — to allocate nothing. It
// does so with no collector and with a campaign's metrics-only worker
// collector, whose golden hits also compose the golden suffix's
// registry delta.
func TestRunTrialZeroAlloc(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	for _, tc := range []struct {
		name string
		col  func() *obs.Collector
	}{
		{"no-collector", func() *obs.Collector { return nil }},
		{"metrics", newWorkerCollector},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newForkSession(w, tc.col(), 0)
			if err != nil {
				t.Fatal(err)
			}
			var hot []TrialSpec
			for _, spec := range campaignSpecs(w, CampaignConfig{Trials: 2048, Seed: 1}) {
				rec, err := s.RunTrial(spec)
				if err != nil {
					t.Fatal(err)
				}
				if endedGolden(s) && rec.Mechanisms == nil {
					hot = append(hot, spec)
				}
			}
			if len(hot) < 1000 {
				t.Fatalf("only %d golden-ending trials with no mechanism", len(hot))
			}
			k := 0
			if got := testing.AllocsPerRun(len(hot), func() {
				if _, err := s.RunTrial(hot[k%len(hot)]); err != nil {
					t.Fatal(err)
				}
				k++
			}); got != 0 {
				t.Errorf("RunTrial allocates %v per golden-ending trial, want 0", got)
			}
		})
	}
}
