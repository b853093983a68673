package fault

import (
	"reflect"
	"testing"

	"repro/internal/des"
)

// TestCampaignPlanReplay: a planned campaign over the exact fault list
// a sampled campaign would draw (with kernel-hit coins effectively
// disabled) reproduces the sampled campaign's records bit-for-bit —
// the bridge the exhaustive verifier's cross-check stands on.
func TestCampaignPlanReplay(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	sampled := CampaignConfig{Trials: 64, Seed: 7, KernelShare: 1e-12}
	want, err := Run(w, sampled)
	if err != nil {
		t.Fatal(err)
	}

	cfg := sampled
	cfg.applyDefaults()
	plan := make([]Fault, cfg.Trials)
	for i := range plan {
		plan[i] = planForTrial(w, &cfg, i).fault
	}
	got, err := Run(w, CampaignConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Trials, want.Trials) {
		for i := range got.Trials {
			if !reflect.DeepEqual(got.Trials[i], want.Trials[i]) {
				t.Fatalf("trial %d: planned %+v, sampled %+v",
					i, got.Trials[i], want.Trials[i])
			}
		}
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Errorf("counts: planned %v, sampled %v", got.Counts, want.Counts)
	}
}

// TestCampaignPlanForcesTrials: Plan overrides Trials, tosses no
// kernel-hit coins, and runs identically on the fork engine and the
// from-scratch oracle.
func TestCampaignPlanForcesTrials(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	plan := []Fault{
		{At: 0, Target: TargetRegister, Reg: 6, Bit: 3},
		{At: 100 * des.Microsecond, Target: TargetALU, Mask: 1 << 5},
		{At: des.Millisecond / 2, Target: TargetPC, Bit: 2},
	}
	res, err := Run(w, CampaignConfig{Plan: plan, Trials: 999})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != len(plan) {
		t.Fatalf("ran %d trials, want len(plan) = %d", len(res.Trials), len(plan))
	}
	for i := range plan {
		if res.Trials[i].Fault != plan[i] {
			t.Errorf("trial %d injected %v, planned %v", i, res.Trials[i].Fault, plan[i])
		}
	}
	scratch := scratchCampaign(t, w, CampaignConfig{Plan: plan})
	if !reflect.DeepEqual(res.Trials, scratch.Trials) {
		t.Errorf("planned campaign diverges between the fork engine and the from-scratch oracle")
	}
}
