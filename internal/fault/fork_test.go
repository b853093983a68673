package fault

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
)

// forkEquivCases are the campaign shapes the fork engine must reproduce
// bit-identically: every telemetry mode, serial and parallel workers,
// and a checkpoint spacing that does not divide the period evenly.
var forkEquivCases = []struct {
	name string
	cfg  CampaignConfig
}{
	{"classify", CampaignConfig{Trials: 64, Seed: 7}},
	{"classify-parallel", CampaignConfig{Trials: 64, Seed: 7, Parallelism: 3}},
	{"classify-odd-interval", CampaignConfig{Trials: 64, Seed: 7,
		interval: 300 * des.Microsecond}},
	{"metrics", CampaignConfig{Trials: 48, Seed: 11, Telemetry: true, Parallelism: 2}},
	{"events", CampaignConfig{Trials: 48, Seed: 11, TelemetryEvents: true, Parallelism: 2}},
	// The gate's golden stream has 81 events, so both caps cut it and
	// golden hits must respect what the capped golden tail lacks.
	{"events-capped-4", CampaignConfig{Trials: 48, Seed: 11, TelemetryEvents: true,
		EventsPerTrial: 4, Parallelism: 2}},
	{"events-capped-40", CampaignConfig{Trials: 48, Seed: 11, TelemetryEvents: true,
		EventsPerTrial: 40, Parallelism: 2}},
}

// scratchCampaign is the from-scratch reference campaign: every trial
// of cfg runs through the oracle ScratchTrial, in index order, on a fresh
// instance with a fresh collector when telemetry is on, and the result
// is assembled by FinalizeSharded as fault.Run assembles its own.
func scratchCampaign(t *testing.T, w Workload, cfg CampaignConfig) *Result {
	t.Helper()
	cfg.applyDefaults()
	var goldenCol *obs.Collector
	if cfg.TelemetryEvents {
		goldenCol = newTrialCollector(&cfg)
	}
	golden, err := goldenRun(w, goldenCol)
	if err != nil {
		t.Fatal(err)
	}
	records := make([]TrialRecord, cfg.Trials)
	var metrics *obs.Registry
	if cfg.Telemetry {
		metrics = obs.NewRegistry()
	}
	var events []obs.Event
	specs := campaignSpecs(w, cfg)
	for i := range records {
		col := campaignCollector(&cfg)
		rec, _, err := ScratchTrial(w, specs[i], golden, col)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		records[i] = rec
		if col != nil {
			recordTrialMetrics(col.Registry(), &rec)
			metrics.Merge(col.Registry())
			for _, e := range col.Events() {
				e.Trial = i + 1
				events = append(events, e)
			}
		}
	}
	res, err := FinalizeSharded(cfg, golden, records, metrics)
	if err != nil {
		t.Fatal(err)
	}
	res.Events = events
	if goldenCol != nil {
		res.GoldenEvents = goldenCol.Events()
	}
	return res
}

// TestCampaignForkEquivalence runs the same campaign on the fork engine
// and on the from-scratch oracle and requires every observable — trial
// records, outcome tallies, mechanism and target attributions, merged
// metrics, and event streams — to be bit-identical. This is the
// differential guard for the whole fork path: checkpoint selection,
// in-place restore, phantom-injection swap, convergence cutoff, and
// telemetry accumulation.
func TestCampaignForkEquivalence(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	for _, tc := range forkEquivCases {
		t.Run(tc.name, func(t *testing.T) {
			want := scratchCampaign(t, w, tc.cfg)
			got, err := Run(w, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Trials, want.Trials) {
				for i := range got.Trials {
					if !reflect.DeepEqual(got.Trials[i], want.Trials[i]) {
						t.Fatalf("trial %d diverged: fork %+v, scratch %+v",
							i, got.Trials[i], want.Trials[i])
					}
				}
			}
			if !reflect.DeepEqual(got.Counts, want.Counts) {
				t.Errorf("counts: fork %v, scratch %v", got.Counts, want.Counts)
			}
			if !reflect.DeepEqual(got.ByMechanism, want.ByMechanism) {
				t.Errorf("mechanisms: fork %v, scratch %v", got.ByMechanism, want.ByMechanism)
			}
			if !reflect.DeepEqual(got.ByTarget, want.ByTarget) {
				t.Errorf("targets: fork %v, scratch %v", got.ByTarget, want.ByTarget)
			}
			if (got.Metrics == nil) != (want.Metrics == nil) {
				t.Fatalf("metrics presence: fork %v, scratch %v",
					got.Metrics != nil, want.Metrics != nil)
			}
			if got.Metrics != nil && got.Metrics.Digest() != want.Metrics.Digest() {
				t.Errorf("metrics digest: fork %#x, scratch %#x",
					got.Metrics.Digest(), want.Metrics.Digest())
			}
			if !reflect.DeepEqual(got.Events, want.Events) {
				t.Errorf("event streams differ: fork %d events (digest %#x), scratch %d (digest %#x)",
					len(got.Events), obs.DigestEvents(got.Events),
					len(want.Events), obs.DigestEvents(want.Events))
			}
			if !reflect.DeepEqual(got.GoldenEvents, want.GoldenEvents) {
				t.Errorf("golden event streams differ")
			}
		})
	}
}

// TestTrialTelemetryEquivalence checks every trial of the telemetry
// equivalence cases on its own: after RunTrial the session's collector
// must hold the from-scratch trial's registry (digest), event stream
// and drop count. A merged campaign digest can hide one trial's wrong
// histogram or gauge extreme behind another trial's; this cannot. Every
// case must end some trials on golden entries and some on entries
// earlier trials recorded, or the composition is not exercised.
func TestTrialTelemetryEquivalence(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	for _, tc := range forkEquivCases {
		cfg := tc.cfg
		cfg.applyDefaults()
		if !cfg.Telemetry {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			s, err := newForkSession(w, campaignCollector(&cfg), cfg.interval)
			if err != nil {
				t.Fatal(err)
			}
			// The capture run's queue peaks at t=0, phantom included, so
			// only trials injected at t=0 end below the golden suffix's
			// des.pending_peak: these two converge and pin the phantom rule.
			dataBase, _ := w.DataRange()
			specs := append(campaignSpecs(w, cfg),
				TrialSpec{Fault: Fault{At: 0, Target: TargetRegister, Reg: 4, Bit: 3}},
				TrialSpec{Fault: Fault{At: 0, Target: TargetMemoryData, Addr: dataBase, Bit: 1}})
			goldens, recorded := 0, 0
			for i, spec := range specs {
				rec, err := s.RunTrial(spec)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case endedGolden(s):
					goldens++
				case endedRecorded(s):
					recorded++
				}
				col := campaignCollector(&cfg)
				want, _, err := ScratchTrial(w, spec, s.Golden(), col)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rec, want) {
					t.Fatalf("trial %d: record %+v, from-scratch %+v", i, rec, want)
				}
				if got, want := s.Col.Registry().Digest(), col.Registry().Digest(); got != want {
					t.Errorf("trial %d (golden end %v, recorded end %v): registry digest %#x, from-scratch %#x",
						i, endedGolden(s), endedRecorded(s), got, want)
				}
				if got, want := s.Col.Events(), col.Events(); len(got) != len(want) ||
					(len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("trial %d (golden end %v, recorded end %v): %d events (digest %#x), from-scratch %d (digest %#x)",
						i, endedGolden(s), endedRecorded(s), len(got), obs.DigestEvents(got), len(want), obs.DigestEvents(want))
				}
				if got, want := s.Col.Dropped(), col.Dropped(); got != want {
					t.Errorf("trial %d: %d events dropped, from-scratch %d", i, got, want)
				}
			}
			if goldens == 0 || recorded == 0 {
				t.Errorf("%d trials ended on a golden entry and %d on a recorded one; want some of each", goldens, recorded)
			}
		})
	}
}

// TestCheckpointRestoreDifferential proves restore+run ≡ straight run
// for every checkpoint: a capture instance is run to the horizon once
// for reference outputs and a reference forward digest, then rewound to
// each checkpoint in turn and re-run. Every replay must reproduce the
// reference bit-for-bit — the restore-layer half of the fork soundness
// argument, isolated from fault injection and checkpoint selection.
func TestCheckpointRestoreDifferential(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	s, err := newForkSession(w, nil, des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	inst, cs, horizon := s.Inst, s.fw.cs, w.Horizon()
	if len(cs.states) < 3 {
		t.Fatalf("only %d checkpoints captured", len(cs.states))
	}
	// The session's capture run has finished at the horizon: this
	// instance's full trajectory is the reference every replay must
	// match. The phantom stays queued (it sits at MaxTime), so
	// ForwardDigest skips it on both sides.
	refWrites := append([]Write(nil), inst.Rec.Writes...)
	refOmissions := inst.Rec.Omissions
	refMasked := inst.Rec.MaskedReleases
	refDigest := inst.Kernel.ForwardDigest(cs.phantom)
	refStats := inst.Kernel.Stats()

	for k, st := range cs.states {
		inst.Restore(st)
		if got := inst.Sim.Now(); got != st.at {
			t.Fatalf("checkpoint %d: restored clock %v, want %v", k, got, st.at)
		}
		got := inst.Kernel.ForwardDigest(cs.phantom)
		if e := s.fw.table.m[suffixKey{b: k, digest: got}]; e == nil || !e.golden {
			t.Fatalf("checkpoint %d: restored digest %#x keys no golden entry", k, got)
		}
		if err := inst.Sim.RunUntil(horizon); err != nil {
			t.Fatalf("checkpoint %d: replay: %v", k, err)
		}
		if !reflect.DeepEqual(inst.Rec.Writes, refWrites) {
			t.Fatalf("checkpoint %d: replay wrote %v, want %v", k, inst.Rec.Writes, refWrites)
		}
		if inst.Rec.Omissions != refOmissions || inst.Rec.MaskedReleases != refMasked {
			t.Fatalf("checkpoint %d: replay counters (%d,%d), want (%d,%d)", k,
				inst.Rec.Omissions, inst.Rec.MaskedReleases, refOmissions, refMasked)
		}
		if got := inst.Kernel.ForwardDigest(cs.phantom); got != refDigest {
			t.Fatalf("checkpoint %d: replay digest %#x, want %#x", k, got, refDigest)
		}
		if got := inst.Kernel.Stats(); !reflect.DeepEqual(got.ErrorsDetected, refStats.ErrorsDetected) {
			t.Fatalf("checkpoint %d: replay detections %v, want %v", k,
				got.ErrorsDetected, refStats.ErrorsDetected)
		}
	}
}

// TestCheckpointSelection pins the walk-back rule: the fork base for a
// fault at t is the latest checkpoint strictly before t whose committed
// CPU slices all ended by t.
func TestCheckpointSelection(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	s, err := newForkSession(w, nil, des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.fw.cs
	if got := cs.selectFor(0); got != 0 {
		t.Errorf("fault at 0: checkpoint %d, want 0", got)
	}
	for k, st := range cs.states {
		if k == 0 {
			continue
		}
		// A fault exactly at a checkpoint instant must fork from an
		// earlier one (strictly-before rule: the injection priority band
		// fires before any same-instant model event).
		if got := cs.selectFor(st.at); got >= k {
			t.Errorf("fault at checkpoint %d instant: selected %d, want < %d", k, got, k)
		}
		if st.kern.CPUBusyUntil() <= st.at {
			// The checkpoint is idle-clean: a fault just after its instant
			// may fork from it.
			if got := cs.selectFor(st.at + 1); got != k {
				t.Errorf("fault just after checkpoint %d: selected %d", k, got)
			}
		}
	}
	// Monotonicity: later faults never select earlier checkpoints.
	prev := 0
	for at := des.Time(0); at < w.Horizon(); at += 100 * des.Microsecond {
		got := cs.selectFor(at)
		if got < prev {
			t.Fatalf("selection regressed: fault %v -> checkpoint %d after %d", at, got, prev)
		}
		prev = got
	}
}

// TestDispatchCheckpointDifferential pins the dispatch checkpoints
// against the from-scratch oracle. Every merged kernel-activity window
// of the gate session ends at a checkpoint; for each such checkpoint p
// and every target, faults at p+1, cpuBusyUntil(p)-1, cpuBusyUntil(p)
// and cpuBusyUntil(p)+1 — inside the slice the kernel co-simulated at
// p, at its end and just past it, where the fork base becomes p — must
// classify as ScratchTrial classifies them.
func TestDispatchCheckpointDifferential(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	golden, err := GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewForkSession(w, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	wins := s.ActivityWindows()
	var dispatch []int
	for k := 1; k < s.Checkpoints(); k++ {
		at := s.CheckpointAt(k)
		for _, iv := range wins {
			if iv.End == at {
				dispatch = append(dispatch, k)
				break
			}
		}
	}
	if len(dispatch) < 2*8 {
		t.Fatalf("%d of %d checkpoints are dispatch instants; the gate workload dispatches two copies a period for 8 periods",
			len(dispatch), s.Checkpoints())
	}
	start, end := w.InjectionWindow()
	forked := 0
	for _, k := range dispatch {
		at, busy := s.CheckpointAt(k), s.fw.cs.states[k].kern.CPUBusyUntil()
		if busy <= at {
			t.Fatalf("checkpoint %d at %v: no slice co-simulated (cpuBusyUntil %v)", k, at, busy)
		}
		for _, ft := range []des.Time{at + 1, busy - 1, busy, busy + 1} {
			if ft < start || ft >= end {
				continue
			}
			if s.Select(ft) == k {
				forked++
			}
			for ti, target := range AllTargets() {
				f := DrawFaultAt(w, target, ft, des.NewRandIndexed2(3, uint64(ti), uint64(ft)))
				spec := TrialSpec{Fault: f}
				got, err := s.RunTrial(spec)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := ScratchTrial(w, spec, golden, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("checkpoint %d, fault %+v:\nfork    %+v\nscratch %+v", k, f, got, want)
				}
			}
		}
	}
	if forked == 0 {
		t.Fatal("no probe forked from a dispatch checkpoint")
	}
	t.Logf("%d dispatch checkpoints of %d; %d probe instants forked from one", len(dispatch), s.Checkpoints(), forked)
}

// TestCheckpointBound pins the maxCheckpoints clamp with the dispatch
// checkpoints counted in it: a workload with many short periods
// dispatches far more often than the store may hold, and a
// one-nanosecond grid fills it alone.
func TestCheckpointBound(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{Periods: 2100, Period: 40 * des.Microsecond, Compute: 4})
	for _, interval := range []des.Time{0, 1} {
		s, err := NewForkSession(w, interval, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("interval %v: %d checkpoints, %d windows", interval, s.Checkpoints(), len(s.ActivityWindows()))
		if n := s.Checkpoints(); n > maxCheckpoints {
			t.Errorf("interval %v: %d checkpoints, above the %d bound", interval, n, maxCheckpoints)
		}
		if interval == 0 {
			if n, wins := s.Checkpoints(), len(s.ActivityWindows()); n != maxCheckpoints || wins < maxCheckpoints {
				t.Errorf("%d checkpoints for %d windows: the dispatch instants should fill the bound", n, wins)
			}
		}
	}
}

// TestInjectionWindowHalfOpen pins the half-open injection-window
// contract: drawFault yields instants in [start, end) — start is
// drawable, end never is.
func TestInjectionWindowHalfOpen(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	cfg := CampaignConfig{}
	cfg.applyDefaults()
	start, end := w.InjectionWindow()
	for i := 0; i < 4096; i++ {
		rng := des.NewRandIndexed(99, uint64(i))
		f := drawFault(w, cfg, rng)
		if f.At < start || f.At >= end {
			t.Fatalf("draw %d: fault at %v outside [%v, %v)", i, f.At, start, end)
		}
	}
	// A width-1 window pins the draw to the start instant exactly.
	nw := narrowWindow{Workload: w, start: 41, end: 42}
	for i := 0; i < 64; i++ {
		rng := des.NewRandIndexed(99, uint64(i))
		if f := drawFault(nw, cfg, rng); f.At != 41 {
			t.Fatalf("width-1 window drew %v, want 41", f.At)
		}
	}
}

// narrowWindow overrides a workload's injection window.
type narrowWindow struct {
	Workload
	start, end des.Time
}

func (n narrowWindow) InjectionWindow() (des.Time, des.Time) { return n.start, n.end }

// TestForkZeroAlloc gates the fork engine's steady state: once a
// worker's checkpoints are captured and one trial has warmed the
// scratch, restoring a checkpoint and digesting the machine must not
// allocate. (Snapshot capture itself is per-worker cold-path work and
// may allocate its retained buffers.)
func TestForkZeroAlloc(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	s, err := newForkSession(w, nil, des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	inst, cs := s.Inst, s.fw.cs
	// Warm: one restore of each checkpoint plus one re-capture.
	for _, st := range cs.states {
		inst.Restore(st)
	}
	var rescratch InstanceState
	inst.Snapshot(&rescratch)
	k := 0
	if got := testing.AllocsPerRun(64, func() {
		inst.Restore(cs.states[k])
		_ = inst.Kernel.ForwardDigest(cs.phantom)
		k = (k + 1) % len(cs.states)
	}); got != 0 {
		t.Errorf("restore+digest allocates %v per run, want 0", got)
	}
	if got := testing.AllocsPerRun(64, func() {
		inst.Snapshot(&rescratch)
	}); got != 0 {
		t.Errorf("warm snapshot allocates %v per run, want 0", got)
	}
}

// TestInstanceSnapshotRoundTrip exercises the snapshot layer across a
// mutation: capture, run further (mutating every component), restore,
// and require a fresh capture to reproduce the original — including the
// collector, which campaigns with telemetry rewind per trial.
func TestInstanceSnapshotRoundTrip(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true}).(*stdWorkload)
	col := obs.NewCollector("")
	col.SetEventLimit(128)
	inst, err := w.NewObserved(col)
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.NewSuffixes(2)
	tel.Reset(col)
	tel.Mark(col) // the run's start: rewinds need the whole stream
	if err := inst.Sim.RunUntil(2 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	var at2 InstanceState
	inst.Snapshot(&at2)
	tel.Mark(col)
	digest2 := inst.Kernel.ForwardDigest(des.Event{})
	events2 := len(col.Events())

	// Mutate everything: more simulation, a memory fault, a register
	// fault.
	if err := inst.Sim.RunUntil(4 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	inst.Kernel.Mem().FlipBit(0x8000, 3)
	inst.Kernel.Proc().FlipRegister(4, 17)
	tel.End(col)

	inst.Restore(&at2)
	tel.Rewind(col, 1)
	if got := inst.Sim.Now(); got != 2*des.Millisecond {
		t.Fatalf("restored clock %v", got)
	}
	if got := inst.Kernel.ForwardDigest(des.Event{}); got != digest2 {
		t.Fatalf("restored digest %#x, want %#x", got, digest2)
	}
	if got := len(col.Events()); got != events2 {
		t.Fatalf("restored collector holds %d events, want %d", got, events2)
	}
	var again InstanceState
	inst.Snapshot(&again)
	if !reflect.DeepEqual(again.writes, at2.writes) {
		t.Fatalf("re-captured writes %v, want %v", again.writes, at2.writes)
	}
	if again.omissions != at2.omissions || again.maskedReleases != at2.maskedReleases {
		t.Fatalf("re-captured counters differ")
	}
}

// TestResolveForkInterval pins the spacing rule: an explicit session
// interval wins, else the 250µs default, whatever the workload's
// period; pathologically small intervals are clamped so the store
// stays bounded.
func TestResolveForkInterval(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	if got := forkInterval(w, 0); got != defaultForkInterval {
		t.Errorf("default interval %v, want %v", got, defaultForkInterval)
	}
	// A period finer than the default does not tighten the grid: the
	// dispatch checkpoints already follow each release's copies.
	fine := NewStdWorkload(StdWorkloadConfig{Period: 100 * des.Microsecond})
	if got := forkInterval(fine, 0); got != defaultForkInterval {
		t.Errorf("100us-period interval %v, want the %v default", got, defaultForkInterval)
	}
	if got := forkInterval(w, 2*des.Millisecond); got != 2*des.Millisecond {
		t.Errorf("explicit interval %v, want 2ms", got)
	}
	if got := forkInterval(w, 1); got < w.Horizon()/maxCheckpoints {
		t.Errorf("interval %v below the %d-checkpoint clamp", got, maxCheckpoints)
	}
}
