package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/des"
)

func TestGoldenRunDeterministic(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	g1, err := goldenRun(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := goldenRun(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWrites(g1, g2) {
		t.Fatal("golden runs differ between builds")
	}
	// Releases at 0..8 ms inside the 8.5 ms horizon: nine commits.
	if len(g1) != 9 {
		t.Errorf("golden writes = %d, want 9 (one per release)", len(g1))
	}
}

// TestEnumCardinalities pins NumTargets/NumOutcomes to the enum
// listings: the array-indexed campaign tallies and the adaptive
// engine's per-outcome counters size their arrays from these
// constants, so a new Target or Outcome must bump them (and valid
// values must stay the contiguous range 1..N).
func TestEnumCardinalities(t *testing.T) {
	targets := AllTargets()
	if len(targets) != NumTargets {
		t.Errorf("NumTargets = %d, AllTargets lists %d", NumTargets, len(targets))
	}
	for i, tg := range targets {
		if int(tg) != i+1 {
			t.Errorf("AllTargets[%d] = %d, want contiguous value %d", i, int(tg), i+1)
		}
	}
	outcomes := AllOutcomes()
	if len(outcomes) != NumOutcomes {
		t.Errorf("NumOutcomes = %d, AllOutcomes lists %d", NumOutcomes, len(outcomes))
	}
	for i, o := range outcomes {
		if int(o) != i+1 {
			t.Errorf("AllOutcomes[%d] = %d, want contiguous value %d", i, int(o), i+1)
		}
	}
}

func TestSubsequenceHelpers(t *testing.T) {
	a := []Write{{1, 1}, {1, 2}, {1, 3}}
	if !isSubsequence([]Write{{1, 1}, {1, 3}}, a) {
		t.Error("valid subsequence rejected")
	}
	if isSubsequence([]Write{{1, 3}, {1, 1}}, a) {
		t.Error("out-of-order subsequence accepted")
	}
	if !isSubsequence(nil, a) {
		t.Error("empty subsequence rejected")
	}
	if isStrictPrefixOrSubsequence(a, a) {
		t.Error("equal sequence counted as strict")
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := Run(nil, CampaignConfig{Trials: 1}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(NewStdWorkload(StdWorkloadConfig{}), CampaignConfig{Trials: -1}); err == nil {
		t.Error("negative trials accepted")
	}
}

// TestCampaignSmall is the core behavioural test: a modest campaign must
// (a) be deterministic under a fixed seed, (b) classify every trial,
// (c) show the TEM shape the paper reports — the large majority of
// detected errors masked, small omission and fail-silent fractions, and
// high overall coverage.
func TestCampaignSmall(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	cfg := CampaignConfig{Trials: 300, Seed: 42}
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != 300 {
		t.Fatalf("classified %d of 300", total)
	}

	// Determinism.
	res2, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Trials {
		if res.Trials[i].Outcome != res2.Trials[i].Outcome {
			t.Fatalf("trial %d diverged across identical runs", i)
		}
	}

	if res.Activated() == 0 {
		t.Fatal("no faults activated; injector broken")
	}
	if res.CD.P < 0.8 {
		t.Errorf("C_D = %v, expected high coverage", res.CD)
	}
	if res.PT.P < 0.5 {
		t.Errorf("P_T = %v, TEM should mask the majority of detected errors", res.PT)
	}
	if res.PT.P+res.POM.P+res.PFS.P > 1.0+1e-9 {
		t.Errorf("P_T+P_OM+P_FS = %v > 1", res.PT.P+res.POM.P+res.PFS.P)
	}
	// The comparison mechanism must appear among the detectors: silent
	// data corruptions are exactly what TEM exists to catch.
	if res.ByMechanism["comparison"] == 0 {
		t.Error("comparison never detected anything")
	}
	s := res.Summary()
	for _, frag := range []string{"C_D", "P_T", "masked", "trials"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary missing %q:\n%s", frag, s)
		}
	}
}

// TestCampaignKernelShare: with KernelShare forced to 1, every fault hits
// the kernel; with high detection they become fail-silent failures.
func TestCampaignKernelShare(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	res, err := Run(w, CampaignConfig{
		Trials: 40, Seed: 7, KernelShare: 1.0, KernelDetect: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[FailSilent] != 40 {
		t.Errorf("fail-silent = %d, want 40: %v", res.Counts[FailSilent], res.Counts)
	}
	if res.PFS.P != 1 {
		t.Errorf("P_FS = %v, want 1", res.PFS)
	}
}

// TestCampaignECCTargetsMemory: restricting targets to memory-data
// faults with ECC enabled should yield almost no failures — ECC corrects
// single-bit errors (Table 1's ECC row).
func TestCampaignECCTargetsMemory(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	res, err := Run(w, CampaignConfig{
		Trials:      60,
		Seed:        3,
		Targets:     []Target{TargetMemoryData, TargetMemoryCode},
		KernelShare: 1e-12, // effectively disable kernel hits
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Counts[ValueFailure]; n != 0 {
		t.Errorf("value failures with ECC = %d", n)
	}
	if n := res.Counts[Omission]; n != 0 {
		t.Errorf("omissions with ECC = %d", n)
	}
}

// TestCampaignRegisterFaultsAreMaskedByTEM: register faults during task
// execution are the paper's canonical TEM-maskable class.
func TestCampaignRegisterFaultsAreMaskedByTEM(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	res, err := Run(w, CampaignConfig{
		Trials:      200,
		Seed:        11,
		Targets:     []Target{TargetRegister, TargetALU},
		KernelShare: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Activated() == 0 {
		t.Fatal("nothing activated")
	}
	if res.CD.P < 0.95 {
		t.Errorf("C_D for register/ALU faults = %v; TEM comparison should catch these", res.CD)
	}
	if res.PT.P < 0.8 {
		t.Errorf("P_T = %v; register faults should overwhelmingly be masked", res.PT)
	}
	if res.Counts[ValueFailure] > res.Config.Trials/20 {
		t.Errorf("too many value failures: %d", res.Counts[ValueFailure])
	}
}

func TestFaultString(t *testing.T) {
	cases := []Fault{
		{Target: TargetRegister, Reg: 3, Bit: 5, At: des.Microsecond},
		{Target: TargetPC, Bit: 1},
		{Target: TargetALU, Mask: 0x10},
		{Target: TargetMemoryData, Addr: 0x8000, Bit: 2},
	}
	for _, f := range cases {
		if f.String() == "" || !strings.Contains(f.String(), f.Target.String()) {
			t.Errorf("String() = %q", f.String())
		}
	}
	for _, target := range AllTargets() {
		if target.String() == "" {
			t.Error("unnamed target")
		}
	}
	for _, o := range []Outcome{NotActivated, Masked, Omission, FailSilent, ValueFailure} {
		if o.String() == "" {
			t.Error("unnamed outcome")
		}
	}
}

// TestParseTargets pins the one target-list grammar every front end
// shares: comma-separated Target.String names, whitespace ignored, a
// blank list meaning all targets, empty items and unknown names
// rejected.
func TestParseTargets(t *testing.T) {
	cases := []struct {
		list string
		want []Target
		err  string // error substring; "" = must parse
	}{
		{"", nil, ""},
		{"   ", nil, ""},
		{"alu", []Target{TargetALU}, ""},
		{"alu,pc", []Target{TargetALU, TargetPC}, ""},
		{" register , mem-data ,mem-code", []Target{TargetRegister, TargetMemoryData, TargetMemoryCode}, ""},
		{"sp,sp", []Target{TargetSP, TargetSP}, ""},
		{"alu,", nil, "empty target"},
		{",alu", nil, "empty target"},
		{"alu,,pc", nil, "empty target"},
		{"alu, ,pc", nil, "empty target"},
		{",", nil, "empty target"},
		{"warp-core", nil, "unknown target \"warp-core\""},
		{"alu,PC", nil, "unknown target \"PC\""},
		{"mem data", nil, "unknown target"},
	}
	for _, tc := range cases {
		got, err := ParseTargets(tc.list)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseTargets(%q) = %v, %v; want error containing %q", tc.list, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseTargets(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}
