package exhaust

import (
	"flag"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden certificate fixture")

// gateWorkload is the CI gate configuration: the small brake-by-wire
// control workload whose full placement space enumerates in seconds.
func gateWorkload() fault.Workload {
	return fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true, Periods: 3, Compute: 16})
}

// tinyConfig restricts the space so unit tests stay fast on one core:
// two target classes at a coarse quantum.
func tinyConfig() Config {
	return Config{
		Quantum: 250 * des.Microsecond,
		Targets: []fault.Target{fault.TargetRegister, fault.TargetALU},
	}
}

func TestSpaceEnumeration(t *testing.T) {
	w := gateWorkload()
	cfg := Config{}
	space, err := NewSpace(w, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Default grid: the 1ms hyperperiod at the 50µs default quantum.
	if space.Quanta != 20 {
		t.Errorf("quanta = %d, want 20", space.Quanta)
	}
	// Per-quantum support mirrors drawFault: 13 registers × 32 bits, 32
	// PC bits, 32 SP bits, 32 single-bit ALU masks, and 32 bits per data
	// and code word.
	_, dataWords := w.DataRange()
	_, codeWords := w.CodeRange()
	want := 13*32 + 32 + 32 + 32 + int(dataWords)*32 + int(codeWords)*32
	if space.PerQuantum != want {
		t.Errorf("perQuantum = %d, want %d", space.PerQuantum, want)
	}
	if space.Len() != space.Quanta*space.PerQuantum {
		t.Errorf("len = %d, want quanta×perQuantum", space.Len())
	}

	faults := space.Faults()
	if len(faults) != space.Len() {
		t.Fatalf("materialized %d faults, want %d", len(faults), space.Len())
	}
	seen := make(map[fault.Fault]int, len(faults))
	for i, f := range faults {
		if prev, dup := seen[f]; dup {
			t.Fatalf("placement %d duplicates placement %d: %v", i, prev, f)
		}
		seen[f] = i
		if f.At < space.Start || f.At >= space.End {
			t.Fatalf("placement %d at %v outside the half-open window [%v, %v)",
				i, f.At, space.Start, space.End)
		}
		if f != space.Fault(i) {
			t.Fatalf("Fault(%d) = %v, materialized %v", i, space.Fault(i), f)
		}
	}
	// The first placement sits exactly at the window start; the window
	// end itself is never enumerated (half-open contract, like
	// drawFault's start + Intn(end-start)).
	if faults[0].At != space.Start {
		t.Errorf("first placement at %v, want window start %v", faults[0].At, space.Start)
	}
	if last := faults[len(faults)-1].At; last != space.Start+des.Time(space.Quanta-1)*space.Quantum {
		t.Errorf("last placement at %v, want final quantum", last)
	}
}

func TestSpaceWindowClipping(t *testing.T) {
	// The standard workload's injection window spans Periods-1 periods,
	// but its hyperperiod is one period — the space must clip to it.
	w := gateWorkload()
	cfg := Config{}
	space, err := NewSpace(w, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if space.Start != 0 || space.End != des.Millisecond {
		t.Errorf("window [%v, %v), want the [0, 1ms) hyperperiod", space.Start, space.End)
	}
	// Explicit Start/End override the clip.
	cfg = Config{Start: des.Millisecond, End: des.Millisecond + 100*des.Microsecond,
		Quantum: 30 * des.Microsecond}
	space, err = NewSpace(w, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if space.Start != des.Millisecond || space.Quanta != 4 {
		t.Errorf("override window start %v quanta %d, want 1ms and ceil(100/30)=4",
			space.Start, space.Quanta)
	}
	// An empty window is an error, not a zero-length space.
	cfg = Config{Start: des.Millisecond, End: des.Millisecond}
	if _, err := NewSpace(w, &cfg); err == nil {
		t.Error("empty window accepted")
	}
}

// gateCertificate is the gate space's certificate digest; CI checks
// that exhaustcheck prints it too.
const gateCertificate = "fnv1a:c9310924e5a8dda3"

// TestVerifyGate is the acceptance check the CI gate script re-runs
// from the command line: every placement of the gate configuration's
// full space holds the TEM invariants and misses no deadline, the
// certificate is the pinned one, and the per-class totals match the
// campaign runner's over the same placement list exactly.
func TestVerifyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space enumeration in -short mode")
	}
	w := gateWorkload()
	res, err := Verify(w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Records); got != res.Space.Len() {
		t.Fatalf("explored %d of %d placements", got, res.Space.Len())
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != res.Space.Len() {
		t.Fatalf("classified %d of %d placements", total, res.Space.Len())
	}
	if len(res.Violations) != 0 {
		t.Fatalf("%d guarantee violations, first: %v", len(res.Violations), res.Violations[0])
	}
	if res.Counts[fault.Omission] != 0 || res.Counts[fault.ValueFailure] != 0 {
		t.Fatalf("unsafe outcomes in the gate config: %v", res.Counts)
	}
	if res.Counts[fault.Masked] == 0 {
		t.Fatal("no masked placements; TEM never exercised")
	}
	if res.Cert.Digest != gateCertificate {
		t.Errorf("certificate digest %s, want %s", res.Cert.Digest, gateCertificate)
	}

	runner, err := fault.NewShardRunner(w, fault.CampaignConfig{Trials: res.Space.Len()})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]fault.TrialSpec, res.Space.Len())
	for i := range specs {
		specs[i].Fault = res.Space.Fault(i)
	}
	records, err := runner.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := fault.FinalizeSharded(runner.Config(), runner.Golden(), records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := res.CrossCheck(camp); len(diffs) != 0 {
		t.Fatalf("cross-check diverged: %v", diffs)
	}
}

// TestEngineStatsPinned pins the exploration's deterministic work
// counters on the gate configuration at one worker (memo tables are
// per worker, so only a fixed worker count has fixed counters). The
// counters say how each placement ended — converged to golden, hit a
// memo, or simulated to the horizon — so a change here means the engine
// explores differently even when every outcome still agrees.
func TestEngineStatsPinned(t *testing.T) {
	res, err := Verify(gateWorkload(), Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := EngineStats{Placements: 29440, Simulated: 0, ConvergedGolden: 11522,
		DedupHits: 17918, Memos: 4108, Workers: 1, Checkpoints: 22}
	if res.Stats != want {
		t.Errorf("engine stats %+v, want %+v", res.Stats, want)
	}
}

// BenchmarkVerify is one single-worker verification of the gate space,
// the exhaustive verifier's per-placement cost with its allocations.
func BenchmarkVerify(b *testing.B) {
	w := gateWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(w, Config{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// verifyScratch is the from-scratch reference verification: every
// placement runs through runScratchPlacement — no checkpoints, cutoffs
// or memo composition — and the outcome data is assembled as Verify
// assembles its own.
func verifyScratch(t testing.TB, w fault.Workload, cfg Config, faults []fault.Fault, space *Space) *Result {
	t.Helper()
	cfg.applyDefaults()
	golden, err := fault.GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]fault.TrialRecord, len(faults))
	pviols := make([][]Violation, len(faults))
	for i, f := range faults {
		if recs[i], pviols[i], err = runScratchPlacement(w, f, golden, i); err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
	}
	return newResult(&cfg, space, recs, pviols, EngineStats{})
}

// TestVerifyDifferential pins the verifier's determinism claim: outcome
// data — per-placement records, tallies, violations, and the
// certificate digest — is bit-identical at any worker count and
// checkpoint spacing, and on the from-scratch reference path with no
// fork engine, cutoff or memo at all. Only EngineStats may differ.
func TestVerifyDifferential(t *testing.T) {
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{Periods: 3, Compute: 16})
	base := tinyConfig()

	variants := []struct {
		name    string
		cfg     func() Config
		scratch bool // run the from-scratch oracle instead of Verify
	}{
		{"workers-1", func() Config { c := base; c.Parallelism = 1; return c }, false},
		{"workers-4", func() Config { c := base; c.Parallelism = 4; return c }, false},
		{"workers-max", func() Config { c := base; c.Parallelism = runtime.GOMAXPROCS(0); return c }, false},
		{"odd-interval", func() Config {
			c := base
			c.Parallelism = 2
			c.SnapshotInterval = 300 * des.Microsecond
			return c
		}, false},
		{"no-fork", func() Config { return base }, true},
	}

	ref, err := Verify(w, variants[0].cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants[1:] {
		t.Run(v.name, func(t *testing.T) {
			var got *Result
			if v.scratch {
				cfg := v.cfg()
				cfg.applyDefaults()
				space, err := NewSpace(w, &cfg)
				if err != nil {
					t.Fatal(err)
				}
				got = verifyScratch(t, w, cfg, space.Faults(), space)
			} else {
				var err error
				if got, err = Verify(w, v.cfg()); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got.Records, ref.Records) {
				for i := range got.Records {
					if !reflect.DeepEqual(got.Records[i], ref.Records[i]) {
						t.Fatalf("placement %d diverged: %+v vs ref %+v",
							i, got.Records[i], ref.Records[i])
					}
				}
			}
			if !reflect.DeepEqual(got.Counts, ref.Counts) {
				t.Errorf("counts %v, ref %v", got.Counts, ref.Counts)
			}
			if !reflect.DeepEqual(got.ByTarget, ref.ByTarget) {
				t.Errorf("by-target diverged")
			}
			if !reflect.DeepEqual(got.ByMechanism, ref.ByMechanism) {
				t.Errorf("by-mechanism %v, ref %v", got.ByMechanism, ref.ByMechanism)
			}
			if !reflect.DeepEqual(got.Violations, ref.Violations) {
				t.Errorf("violations diverged: %d vs ref %d", len(got.Violations), len(ref.Violations))
			}
			if got.Cert.Digest != ref.Cert.Digest {
				t.Errorf("certificate digest %s, ref %s", got.Cert.Digest, ref.Cert.Digest)
			}
		})
	}
}

// TestBoundaryPlacements pins the window and checkpoint-selection edge
// cases: the very first quantum (injection at t=0, before any event has
// fired), instants exactly on checkpoint boundaries (the strictly-
// before selection rule plus the cpuBusyUntil guard), the final quantum
// of the hyperperiod, and the last nanosecond of the window. Each
// placement must classify identically through the fork engine and the
// from-scratch reference path.
func TestBoundaryPlacements(t *testing.T) {
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{Periods: 3, Compute: 16})
	_, end := des.Time(0), des.Millisecond // the clipped hyperperiod window
	placements := []fault.Fault{
		{At: 0, Target: fault.TargetRegister, Reg: 6, Bit: 3},
		{At: 0, Target: fault.TargetPC, Bit: 4},
		{At: 250 * des.Microsecond, Target: fault.TargetRegister, Reg: 6, Bit: 3}, // on a checkpoint boundary
		{At: 500 * des.Microsecond, Target: fault.TargetALU, Mask: 1 << 9},
		{At: end - 50*des.Microsecond, Target: fault.TargetRegister, Reg: 4, Bit: 31}, // final quantum
		{At: end - 1, Target: fault.TargetMemoryData, Addr: 0x8000, Bit: 7},           // last window instant
	}
	got, err := VerifyFaults(w, Config{Parallelism: 1}, placements)
	if err != nil {
		t.Fatal(err)
	}
	want := verifyScratch(t, w, Config{}, placements, nil)
	for i := range placements {
		if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
			t.Errorf("placement %v: fork %+v, scratch %+v",
				placements[i], got.Records[i], want.Records[i])
		}
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("violations diverged: fork %v, scratch %v", got.Violations, want.Violations)
	}
}

// TestResumedCheckDifferential pins the resumed TEM check on streams
// that do break an invariant: the AlwaysTriple ablation runs a
// speculative third copy in every release, golden run included. For
// placements across the whole horizon, the violations a worker's check
// reports are exactly the from-scratch trial's whole-stream violations
// at or past the placement's golden prefix, at the same indexes.
func TestResumedCheckDifferential(t *testing.T) {
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true, Periods: 3, Compute: 16, AlwaysTriple: true})
	s, err := fault.NewForkSession(w, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	bases, vs := foldGolden(s)
	if len(vs) == 0 {
		t.Fatal("the AlwaysTriple golden run breaks no invariant; the case exercises nothing")
	}
	golden, err := fault.GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	codeBase, _ := w.CodeRange()
	var faults []fault.Fault
	for at := des.Time(0); at < s.Horizon(); at += 70 * des.Microsecond {
		faults = append(faults,
			fault.Fault{At: at, Target: fault.TargetALU, Mask: 1 << 9},
			fault.Fault{At: at, Target: fault.TargetRegister, Reg: 6, Bit: 3},
			fault.Fault{At: at, Target: fault.TargetMemoryCode, Addr: codeBase + 8, Bit: 5})
	}
	wk := &worker{s: s, bases: bases, faults: faults}
	resumed := 0
	for i, f := range faults {
		x, err := s.Explore(fault.TrialSpec{Fault: f})
		if err != nil {
			t.Fatal(err)
		}
		got, err := wk.checkTEM(i, &x)
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewEventCollector("")
		if _, _, err := fault.ScratchTrial(w, fault.TrialSpec{Fault: f}, golden, col); err != nil {
			t.Fatal(err)
		}
		var want []obs.Violation
		for _, v := range obs.CheckInvariants(col.Events()) {
			if v.Index >= x.Prefix {
				want = append(want, v)
			}
		}
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%v (golden prefix %d): resumed %v, from-scratch %v", f, x.Prefix, got, want)
		}
		if x.Prefix > 0 && len(want) > 0 {
			resumed++
		}
	}
	if resumed == 0 {
		t.Error("no placement past a non-empty golden prefix broke an invariant; the case exercises nothing")
	}
}

// TestForkSessionSelection pins the session façade's checkpoint
// boundary semantics at the window edges: a fault at t=0 forks from
// checkpoint 0 (captured before any event fires), a fault exactly on a
// checkpoint instant forks from an earlier one (strictly-before rule),
// and selection never regresses across the window.
func TestForkSessionSelection(t *testing.T) {
	w := gateWorkload()
	s, err := fault.NewForkSession(w, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Checkpoints() < 3 {
		t.Fatalf("only %d checkpoints", s.Checkpoints())
	}
	if got := s.Select(0); got != 0 {
		t.Errorf("Select(0) = %d, want 0", got)
	}
	if at := s.CheckpointAt(0); at != 0 {
		t.Errorf("checkpoint 0 at %v, want 0", at)
	}
	for k := 1; k < s.Checkpoints(); k++ {
		if got := s.Select(s.CheckpointAt(k)); got >= k {
			t.Errorf("Select(checkpoint %d instant) = %d, want < %d", k, got, k)
		}
	}
	prev := 0
	for at := des.Time(0); at < s.Horizon(); at += 10 * des.Microsecond {
		got := s.Select(at)
		if got < prev {
			t.Fatalf("selection regressed at %v: %d after %d", at, got, prev)
		}
		prev = got
	}
}

func TestVerifyFaultsValidation(t *testing.T) {
	w := gateWorkload()
	if _, err := VerifyFaults(w, Config{}, nil); err == nil {
		t.Error("empty placement list accepted")
	}
}
