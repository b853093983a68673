package fault

import (
	"reflect"
	"testing"

	"repro/internal/des"
)

// TestCampaignPlanReplay: RunSpecs over the exact specs a sampled
// campaign draws, kernel coins included, reproduces the sampled
// campaign's records bit-for-bit on a runner whose own seed differs —
// the bridge the exhaustive verifier's cross-check stands on.
func TestCampaignPlanReplay(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	sampled := CampaignConfig{Trials: 64, Seed: 7}
	want, err := Run(w, sampled)
	if err != nil {
		t.Fatal(err)
	}
	specs := campaignSpecs(w, sampled)
	hits := 0
	for _, spec := range specs {
		if spec.KernelHit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no kernel-hit coin among the specs; the replay would not cover the coins")
	}
	r, err := NewShardRunner(w, CampaignConfig{Seed: 99, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Trials) {
		t.Fatalf("%d planned records, %d sampled", len(got), len(want.Trials))
	}
	for i := range want.Trials {
		if !reflect.DeepEqual(got[i], want.Trials[i]) {
			t.Fatalf("trial %d: planned %+v, sampled %+v", i, got[i], want.Trials[i])
		}
	}
}

// TestCampaignPlanForcesTrials: RunSpecs runs exactly the given list
// whatever the runner's Trials, tosses no kernel-hit coin for a
// coin-free spec even when the runner's KernelShare is 1, and agrees
// with the from-scratch oracle.
func TestCampaignPlanForcesTrials(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	specs := []TrialSpec{
		{Fault: Fault{At: 0, Target: TargetRegister, Reg: 6, Bit: 3}},
		{Fault: Fault{At: 100 * des.Microsecond, Target: TargetALU, Mask: 1 << 5}},
		{Fault: Fault{At: des.Millisecond / 2, Target: TargetPC, Bit: 2}},
	}
	r, err := NewShardRunner(w, CampaignConfig{Trials: 999, KernelShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("ran %d trials, want len(specs) = %d", len(got), len(specs))
	}
	golden, err := GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		if got[i].Fault != spec.Fault {
			t.Errorf("trial %d injected %v, planned %v", i, got[i].Fault, spec.Fault)
		}
		want, _, err := ScratchTrial(w, spec, golden, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("trial %d: runner %+v, from-scratch %+v", i, got[i], want)
		}
	}
}

// TestRunSpecsReusesSessions: a runner's slots keep their sessions —
// suffix tables and slice memos included — from one RunSpecs call to
// the next, as the adaptive engine's rounds rely on, and a second call
// over the same list returns the first call's records.
func TestRunSpecsReusesSessions(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	specs := campaignSpecs(w, CampaignConfig{Trials: 96, Seed: 3})
	for _, par := range []int{1, 3} {
		r, err := NewShardRunner(w, CampaignConfig{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		first, err := r.RunSpecs(specs)
		if err != nil {
			t.Fatal(err)
		}
		slots := append([]*ForkSession(nil), r.slots...)
		recorded := 0
		for _, s := range slots {
			recorded += s.RecordedEntries()
		}
		if recorded == 0 {
			t.Fatalf("parallelism %d: the first call recorded no suffix-table entry to reuse", par)
		}
		second, err := r.RunSpecs(specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("parallelism %d: the second call's records differ from the first's", par)
		}
		if !reflect.DeepEqual(slots, r.slots) {
			t.Errorf("parallelism %d: the second call rebuilt a slot's session", par)
		}
	}
}
