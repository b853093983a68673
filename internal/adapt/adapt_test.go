package adapt

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/exhaust"
	"repro/internal/fault"
)

// gateWorkload is the CI gate configuration (as in internal/exhaust).
func gateWorkload() fault.Workload {
	return fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true, Periods: 3, Compute: 16})
}

func mustRun(t *testing.T, w fault.Workload, cfg Config) *Result {
	t.Helper()
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptiveDeterminism pins the acceptance criterion: the committed
// tally digest — and every estimate derived from it — is bit-identical
// across Parallelism 1/4/GOMAXPROCS for a fixed seed.
func TestAdaptiveDeterminism(t *testing.T) {
	w := gateWorkload()
	base := Config{Seed: 11, RoundSize: 96, MaxTrials: 288}
	variants := []struct {
		name string
		cfg  func() Config
	}{
		{"workers-1", func() Config { c := base; c.Parallelism = 1; return c }},
		{"workers-4", func() Config { c := base; c.Parallelism = 4; return c }},
		{"workers-max", func() Config { c := base; c.Parallelism = runtime.GOMAXPROCS(0); return c }},
	}
	ref := mustRun(t, w, variants[0].cfg())
	if ref.Trials != base.MaxTrials {
		t.Fatalf("trials = %d, want %d", ref.Trials, base.MaxTrials)
	}
	for _, v := range variants[1:] {
		v := v
		t.Run(v.name, func(t *testing.T) {
			got := mustRun(t, w, v.cfg())
			if got.Digest != ref.Digest {
				t.Errorf("digest %s, ref %s", got.Digest, ref.Digest)
			}
			if !reflect.DeepEqual(got.Strata, ref.Strata) {
				t.Error("strata reports diverged")
			}
			if !reflect.DeepEqual(got.ByOutcome, ref.ByOutcome) {
				t.Errorf("estimates diverged: %v vs ref %v", got.ByOutcome, ref.ByOutcome)
			}
			if got.CD != ref.CD || got.PFS != ref.PFS {
				t.Error("ratio estimates diverged")
			}
		})
	}
}

// TestAdaptiveKernelBranchExact pins the Rao-Blackwellization: with the
// modelled kernel coin carried as an exact stratum, the P(FailSilent)
// interval must cover KernelShare·KernelDetect and reach a width
// uniform sampling would need thousands of trials for — while spending
// zero trials on the branch itself.
func TestAdaptiveKernelBranchExact(t *testing.T) {
	w := gateWorkload()
	res := mustRun(t, w, Config{Seed: 3, RoundSize: 128, MaxTrials: 6000,
		CIWidth: 0.02, CIOutcome: fault.FailSilent})
	if res.StopReason != "ci-width" {
		t.Fatalf("stop = %q (trials %d), want ci-width", res.StopReason, res.Trials)
	}
	est := res.Estimate(fault.FailSilent)
	// The analytic branch contributes exactly KernelShare·KernelDetect;
	// sampled strata can only add mass (faults landing during real
	// kernel-activity windows force fail-silence deterministically), so
	// the exact shift puts a hard floor under the whole interval.
	floor := 0.05 * 0.98
	if est.Lo < floor-1e-9 || est.P < floor-1e-9 {
		t.Errorf("P(fail-silent) = %v dips below the exact kernel branch mass %.4f", est, floor)
	}
	if est.Hi-est.Lo > 0.02 {
		t.Errorf("CI width %.4f exceeds the stop target", est.Hi-est.Lo)
	}
	// Uniform sampling at p≈0.049 needs ≈ 4z²p(1−p)/w² ≈ 1800 trials
	// for width 0.02; the adaptive engine conditions the coin out and
	// must get there far cheaper.
	if res.Trials > 900 {
		t.Errorf("adaptive campaign used %d trials; expected well under uniform's ~1800", res.Trials)
	}
}

// TestAdaptiveStopReasons pins the two stop rules.
func TestAdaptiveStopReasons(t *testing.T) {
	w := gateWorkload()
	res := mustRun(t, w, Config{Seed: 5, RoundSize: 64, MaxTrials: 64})
	if res.StopReason != "max-trials" || res.Trials != 64 || res.Rounds != 1 {
		t.Errorf("got stop %q after %d trials in %d rounds, want max-trials/64/1",
			res.StopReason, res.Trials, res.Rounds)
	}
	res = mustRun(t, w, Config{Seed: 5, RoundSize: 64, MaxTrials: 6400, CIWidth: 1.99})
	if res.StopReason != "ci-width" || res.Rounds != 1 {
		t.Errorf("got stop %q in %d rounds, want ci-width after round 1",
			res.StopReason, res.Rounds)
	}
}

// TestAdaptiveWeightsSumToOne checks the invariant splitting must
// preserve: sampled stratum weights tile the population.
func TestAdaptiveWeightsSumToOne(t *testing.T) {
	w := gateWorkload()
	// Drive the allocation on a common outcome so refinement has
	// variance to chase and actually splits.
	res := mustRun(t, w, Config{Seed: 9, RoundSize: 128, MaxTrials: 1536,
		CIOutcome: fault.Masked, Buckets: 2})
	sum := 0.0
	for _, s := range res.Strata {
		sum += s.Weight
		if s.End <= s.Start {
			t.Errorf("stratum %v [%v, %v) is empty", s.Target, s.Start, s.End)
		}
		if s.FreeWidth <= 0 || s.FreeWidth > s.End-s.Start {
			t.Errorf("stratum %v [%v, %v) free width %v outside (0, window]",
				s.Target, s.Start, s.End, s.FreeWidth)
		}
	}
	// The kernel-activity mass is carried analytically, so the sampled
	// weights tile exactly the rest of the population.
	if res.KernelActivity <= 0 || res.KernelActivity >= 1 {
		t.Errorf("kernel-activity fraction %v outside (0, 1); the gate workload context-switches", res.KernelActivity)
	}
	if math.Abs(sum-(1-res.KernelActivity)) > 1e-9 {
		t.Errorf("weights sum to %v, want 1 − activity = %v", sum, 1-res.KernelActivity)
	}
	if len(res.Strata) <= 2*len(fault.AllTargets()) {
		t.Logf("note: no refinement occurred (%d strata)", len(res.Strata))
	}
	total := 0
	for _, s := range res.Strata {
		total += s.Trials
	}
	if total != res.Trials {
		t.Errorf("per-stratum trials sum to %d, result says %d", total, res.Trials)
	}
}

// TestSplitReassignment unit-tests the split operation: children tile
// the parent window exactly, inherit its samples by instant, and carry
// its weight between them.
func TestSplitReassignment(t *testing.T) {
	g := grid{w0: 0, w1: 1000, buckets: 4}
	parent := &stratum{
		target: fault.TargetALU,
		index:  1,
		start:  g.bound(0, 1),
		end:    g.bound(0, 2),
		// A kernel-activity window [300, 320) is carved out of the
		// sampleable set; the split must partition what remains.
		free:   []fault.Interval{{Start: 250, End: 300}, {Start: 320, End: 500}},
		freeW:  230,
		weight: 0.23,
	}
	parent.commit(260, fault.Masked)
	parent.commit(374, fault.NotActivated)
	parent.commit(490, fault.Masked)
	strata, ok := split([]*stratum{parent}, 0, g, 1000, 1)
	if !ok || len(strata) != 2 {
		t.Fatalf("split failed (ok=%v, %d strata)", ok, len(strata))
	}
	lo, hi := strata[0], strata[1]
	if lo.start != parent.start || lo.end != hi.start || hi.end != parent.end {
		t.Errorf("children [%d,%d)+[%d,%d) do not tile parent [%d,%d)",
			lo.start, lo.end, hi.start, hi.end, parent.start, parent.end)
	}
	if math.Abs(lo.weight+hi.weight-0.23) > 1e-12 {
		t.Errorf("child weights %v+%v != parent 0.23", lo.weight, hi.weight)
	}
	if lo.freeW+hi.freeW != parent.freeW {
		t.Errorf("child free widths %d+%d != parent %d", lo.freeW, hi.freeW, parent.freeW)
	}
	for _, iv := range lo.free {
		if iv.End > lo.end {
			t.Errorf("low child free interval %v crosses the midpoint %d", iv, lo.end)
		}
	}
	for _, iv := range hi.free {
		if iv.Start < hi.start {
			t.Errorf("high child free interval %v crosses the midpoint %d", iv, hi.start)
		}
	}
	if lo.trials()+hi.trials() != 3 {
		t.Errorf("children inherited %d+%d samples, want 3", lo.trials(), hi.trials())
	}
	for _, s := range lo.samples {
		if s.at >= lo.end {
			t.Errorf("low child holds sample at %d past its end %d", s.at, lo.end)
		}
	}
	for _, s := range hi.samples {
		if s.at < hi.start {
			t.Errorf("high child holds sample at %d before its start %d", s.at, hi.start)
		}
	}
	if lo.drawn != 0 || hi.drawn != 0 {
		t.Error("children must start fresh RNG substream counters")
	}
	if lo.key() == parent.key() || hi.key() == parent.key() || lo.key() == hi.key() {
		t.Error("stratum RNG keys must be distinct across the split")
	}
	// A width-1 stratum cannot split.
	tiny := &stratum{target: fault.TargetALU, level: 9, start: 500, end: 501, weight: 0.001}
	if _, ok := split([]*stratum{tiny}, 0, g, 1000, 1); ok {
		t.Error("degenerate split accepted")
	}
}

// TestGridBoundTiling pins the integer grid: child boundaries coincide
// with parent boundaries at every level, so refinement never leaves
// gaps or overlaps.
func TestGridBoundTiling(t *testing.T) {
	g := grid{w0: 17, w1: 17 + 999983, buckets: 3} // deliberately non-divisible
	for level := 0; level < 6; level++ {
		n := int64(3) << uint(level)
		if g.bound(level, 0) != g.w0 || g.bound(level, n) != g.w1 {
			t.Fatalf("level %d: outer bounds [%v, %v] != window", level,
				g.bound(level, 0), g.bound(level, n))
		}
		for i := int64(0); i < n; i++ {
			if g.bound(level+1, 2*i) != g.bound(level, i) {
				t.Fatalf("level %d index %d: child edge %v != parent edge %v",
					level, i, g.bound(level+1, 2*i), g.bound(level, i))
			}
		}
	}
}

// TestAdaptiveDifferentialExhaustive pins the adaptive estimator to the
// PR 7 exhaustive ground truth: on the tiny register+ALU space, the
// exact C_D computed from a full enumeration must lie inside the
// adaptive campaign's own C_D interval — for 1/4/GOMAXPROCS workers (all
// of which must also agree bit-for-bit among themselves). The adaptive
// run models no kernel
// coin, matching the verifier's coin-free population, and samples the
// same [0, 1ms) hyperperiod window.
func TestAdaptiveDifferentialExhaustive(t *testing.T) {
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{Periods: 3, Compute: 16})
	targets := []fault.Target{fault.TargetRegister, fault.TargetALU}
	exact, err := exhaust.Verify(w, exhaust.Config{
		Quantum: 250 * des.Microsecond,
		Targets: targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	detected := exact.Counts[fault.Masked] + exact.Counts[fault.Omission] +
		exact.Counts[fault.FailSilent]
	activated := detected + exact.Counts[fault.ValueFailure]
	if activated == 0 {
		t.Fatal("exhaustive enumeration activated nothing; space broken")
	}
	exactCD := float64(detected) / float64(activated)

	base := Config{
		Seed:          21,
		Targets:       targets,
		Window:        [2]des.Time{exact.Space.Start, exact.Space.End},
		NoKernelModel: true,
		RoundSize:     128,
		MaxTrials:     512,
	}
	variants := []struct {
		name string
		cfg  func() Config
	}{
		{"workers-1", func() Config { c := base; c.Parallelism = 1; return c }},
		{"workers-4", func() Config { c := base; c.Parallelism = 4; return c }},
		{"workers-max", func() Config { c := base; c.Parallelism = runtime.GOMAXPROCS(0); return c }},
	}
	var ref *Result
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			res := mustRun(t, w, v.cfg())
			if !(res.CD.Lo <= exactCD && exactCD <= res.CD.Hi) {
				t.Errorf("exhaustive C_D %.6f outside adaptive interval %v", exactCD, res.CD)
			}
			// The coin-free population must show no analytic mass: the
			// estimates are pure sampled-strata estimates.
			if res.Config.KernelShare != 0 {
				t.Errorf("kernel share %v leaked into a NoKernelModel campaign", res.Config.KernelShare)
			}
			if ref == nil {
				ref = res
				return
			}
			if res.Digest != ref.Digest {
				t.Errorf("digest %s diverged from ref %s", res.Digest, ref.Digest)
			}
			if !reflect.DeepEqual(res.ByOutcome, ref.ByOutcome) {
				t.Error("estimates diverged from ref")
			}
		})
	}
}
