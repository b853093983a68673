package adapt

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/stats"
)

// TestAdaptiveTrialsToWidthPinned pins the adaptive engine's headline
// result on the gate workload: the sampled trials it needs to pin
// P(FailSilent) inside a 0.01-wide 95% interval, against the trials a
// uniform campaign with the same seed needs for the same width. Both
// counts are deterministic (a trial's stream depends only on the seed
// and its index), so the 384 vs 7,928 (20.6×) reduction is a fixture,
// not a timing.
func TestAdaptiveTrialsToWidthPinned(t *testing.T) {
	const (
		width       = 0.01
		wantTrials  = 384
		wantRounds  = 3
		wantStrata  = 24
		wantUniform = 7928
	)
	w := gateWorkload()
	res := mustRun(t, w, Config{
		Seed:      42,
		RoundSize: 128,
		CIWidth:   width,
		CIOutcome: fault.FailSilent,
	})
	if res.StopReason != "ci-width" || res.Trials != wantTrials ||
		res.Rounds != wantRounds || len(res.Strata) != wantStrata {
		t.Errorf("adaptive: stop %q after %d trials, %d rounds, %d strata; want ci-width/%d/%d/%d",
			res.StopReason, res.Trials, res.Rounds, len(res.Strata),
			wantTrials, wantRounds, wantStrata)
	}

	// The uniform count is the smallest prefix of one campaign whose
	// Wilson interval is narrow enough: prefix n holds exactly the
	// trials an n-trial campaign would run. Below ~100 trials the
	// interval is vacuously wide.
	uni, err := fault.Run(w, fault.CampaignConfig{Trials: 8192, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	uniform, hits := 0, 0
	for n, rec := range uni.Trials {
		if rec.Outcome == fault.FailSilent {
			hits++
		}
		if p := stats.NewProportion(hits, n+1); n+1 >= 100 && p.Hi-p.Lo <= width {
			uniform = n + 1
			break
		}
	}
	if uniform != wantUniform {
		t.Errorf("uniform: CI width %v first reached after %d trials, want %d", width, uniform, wantUniform)
	}
}
