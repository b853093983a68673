package fault

// The checkpoint/fork campaign engine. Every trial of a campaign
// simulates the same fault-free prefix up to its injection instant;
// only the suffix after the fault differs. The engine captures the
// golden prefix once per worker — full-machine snapshots on a time grid
// and at every instant the kernel dispatches a copy (see capture) —
// and each trial restores the latest sound checkpoint before its fault
// instead of re-simulating from t=0.
//
// Soundness of the fork (why a forked trial is bit-identical to one
// simulated from scratch):
//
//  1. Identity preservation. Snapshots are captured from, and restored
//     into, the same Instance: every model object (simulator event
//     pool, kernel, tcbs, job records, collector series) is rewound in
//     place, so the callback closures held by queued events and the
//     pointers cached across components stay valid. Event pool
//     generation counters rewind with the pool, which revalidates
//     exactly the handles that were live at capture time — and every
//     holder of such a handle is restored from the same checkpoint.
//
//  2. Prefix equality. A from-scratch trial keeps its injection event
//     queued from t=0 until it fires, and a pending event bounds the
//     kernel's co-simulated CPU slices (runSlice cuts each slice at the
//     next queued instant). The capture run therefore schedules a
//     phantom injection at (MaxTime, PrioInject): the queue depth
//     matches a from-scratch trial's, and the phantom, sitting at
//     MaxTime, can never bound a slice differently from a real injection
//     unless a slice reaches past the fault instant. The
//     checkpoint-selection rule rejects exactly those checkpoints: a
//     trial with fault time t restores the latest checkpoint k with
//     time(k) < t AND cpuBusyUntil(k) <= t. cpuBusyUntil is the end of
//     the last committed slice and is monotone over the run, so the
//     condition guarantees no capture slice in the restored prefix
//     crossed t — meaning the from-scratch injection event could not
//     have bounded any of those slices either (a slice that would have
//     been cut at t ends at or before t, and one that ran past t bumps
//     cpuBusyUntil past t and disqualifies the checkpoint). The restored
//     prefix is thus bit-identical to the prefix a from-scratch trial
//     would simulate. A checkpoint at a dispatch instant needs no case
//     of its own: the slice the kernel co-simulated there is its last
//     committed one, so cpuBusyUntil(k) is that slice's end, and a
//     fault inside the slice forks from an earlier checkpoint.
//
//  3. Suffix equality. After the restore the trial cancels the phantom
//     and schedules the real injection at (t, PrioInject); the replayed
//     [checkpoint, t) window and the post-injection suffix then run
//     under exactly the from-scratch event set. The injection occupies
//     the PrioInject band alone at its instant, so its sequence number
//     (which differs from a from-scratch trial's) can never influence
//     tie-breaking.
//
// How a trial ends early — a lookup in the worker's suffix table at
// each post-injection boundary, whatever the collector — is documented
// on run and lookup below and in suffix.go.

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// SnapshotHinter is implemented by workloads that know a natural
// checkpoint spacing — typically their period, so grid boundaries
// coincide with release instants. The hint sets only the grid: the
// capture adds a checkpoint at every dispatch instant whatever the
// spacing, so the instants that follow each release's copies are
// covered without it. Since delta snapshots made captures near-free,
// the hint only matters when it is finer than the 250 µs default
// (boundary alignment is then preserved); a coarser hint does not win,
// because dense checkpoints are what make fork restores and
// convergence cutoffs cheap.
type SnapshotHinter interface {
	// SnapshotInterval returns the preferred checkpoint spacing.
	SnapshotInterval() des.Time
}

// maxCheckpoints bounds the per-worker checkpoint count, grid and
// dispatch checkpoints together, so a pathologically small
// SnapshotInterval or a workload that dispatches very often cannot
// exhaust memory: the interval is clamped up so the grid alone fits,
// and dispatch checkpoints are taken only in the room the grid leaves.
// With delta snapshots a checkpoint costs only its dirtied pages, the
// id blocks they changed and its block-id array, so the clamp is loose — it exists to stop
// degenerate configurations, not to ration full-image copies as the
// pre-delta engine had to.
const maxCheckpoints = 4096

// defaultForkInterval is the grid spacing used when neither the
// campaign config nor a finer workload hint supplies one. 250 µs is the
// dense regime the fork benchmarks identified as the throughput
// optimum for the standard workload; delta snapshots make its capture
// cost negligible. The dispatch checkpoints come on top of the grid:
// on the gate workload they sit 4 µs and 19.9 µs after each release,
// where no grid this coarse reaches.
const defaultForkInterval = 250 * des.Microsecond

// resolveForkInterval picks the grid spacing for a campaign:
// explicit config wins; otherwise the 250 µs default, tightened to the
// workload's hint when that is finer; pathologically small results are
// clamped so the store stays bounded.
func resolveForkInterval(w Workload, cfg *CampaignConfig) des.Time {
	horizon := w.Horizon()
	interval := cfg.SnapshotInterval
	if interval <= 0 {
		interval = defaultForkInterval
		if h, ok := w.(SnapshotHinter); ok {
			if hint := h.SnapshotInterval(); hint > 0 && hint < interval {
				interval = hint
			}
		}
	}
	if min := (horizon + maxCheckpoints - 1) / maxCheckpoints; interval < min {
		interval = min
	}
	if interval <= 0 {
		interval = horizon
	}
	return interval
}

// InstanceState is one checkpoint of a trial instance's model state:
// simulator, kernel (with processor, memory and MMU) and the recorder.
// Recorder state is a full copy, not a length: a forked trial
// overwrites the shared Writes buffer past the checkpoint, so
// truncation alone could resurrect a previous trial's tail.
type InstanceState struct {
	sim  des.SimState
	kern kernel.KernelState

	writes         []Write
	omissions      int
	maskedReleases int

	// at is the capture instant.
	//nlft:snapshot-skip capture metadata read by fork selection, set by Capture not Snapshot
	at des.Time
}

// Snapshot captures inst's model state into st.
//
//nlft:noalloc
func (inst *Instance) Snapshot(into *InstanceState) {
	inst.Sim.Snapshot(&into.sim)
	inst.Kernel.Snapshot(&into.kern)
	into.writes = append(into.writes[:0], inst.Rec.Writes...)
	into.omissions = inst.Rec.Omissions
	into.maskedReleases = inst.Rec.MaskedReleases
}

// Restore rewinds inst to a state captured from the same instance with
// Snapshot.
//
//nlft:noalloc
func (inst *Instance) Restore(from *InstanceState) {
	inst.Sim.Restore(&from.sim)
	inst.Kernel.Restore(&from.kern)
	inst.Rec.Writes = append(inst.Rec.Writes[:0], from.writes...)
	inst.Rec.Omissions = from.omissions
	inst.Rec.MaskedReleases = from.maskedReleases
}

// checkpointStore is one worker's golden-prefix checkpoint sequence:
// the model states and, with a collector, the capture run's recorder,
// whose marks are the collector's states at the checkpoints.
type checkpointStore struct {
	states []*InstanceState
	col    *obs.Suffixes
	// windows is the capture run's merged kernel-activity windows
	// (mergeWindow), whose ends are the dispatch checkpoints.
	windows []Interval
	// phantom is the placeholder injection event scheduled before the
	// capture run (see the prefix-equality argument above). Its handle
	// revalidates at every restore; each trial cancels it and schedules
	// the real injection.
	phantom des.Event
}

// restore rewinds the instance and collector to checkpoint k and
// cancels the phantom: the state a trial forked from k starts in.
//
//nlft:noalloc
func (fw *forkWorker) restore(k int) {
	fw.inst.Restore(fw.cs.states[k])
	fw.cs.col.Rewind(fw.col, k)
	fw.inst.Sim.Cancel(fw.cs.phantom)
}

// capture runs the worker's instance fault-free to the horizon,
// snapshotting and marking every checkpoint: the capture run is the
// golden run, and its marks, keyed by the digest net of the phantom,
// become the golden entries. Checkpoint 0 is captured before any event
// fires, so a fault at t=0 still restores a pre-injection state (the
// injection band fires before the releases).
//
// The checkpoints are the grid k·interval < horizon plus the dispatch
// instants: the end of every merged kernel-activity window, where the
// kernel dispatches a copy and co-simulates its CPU slice in the same
// event. A checkpoint there, taken once that instant's events have
// fired, already holds the copy's computed state, so a trial faulting
// after the slice restores past it, and a trial the next copy absorbs
// gets a lookup right after it. The capture learns the instants from the
// passive OnContextSwitch hook (the windows ActivityWindows extracts,
// merged by the same rule) and steps event by event up to each one, so
// it adds no event to the queue. A window end is final once the
// capture has passed it: a later switch starts later and cannot merge
// back. Dispatch checkpoints count toward maxCheckpoints; past the room
// the grid leaves them, only grid checkpoints are taken.
func (fw *forkWorker) capture(interval des.Time) error {
	grid := int((fw.horizon + interval - 1) / interval)
	room := maxCheckpoints - grid
	inst, cs := fw.inst, &checkpointStore{states: make([]*InstanceState, 0, 2*grid)}
	fw.cs, fw.marks = cs, make([]mark, 0, 2*grid)
	if fw.col != nil {
		// Checkpoints rewind the collector from the capture's marks
		// (obs.Suffixes.Rewind), which hold the events from mark 0 on.
		if len(fw.col.Events()) != 0 || fw.col.Dropped() != 0 {
			return fmt.Errorf("fault: workload emitted events while it was built; checkpoints need a quiet start")
		}
		fw.tel = obs.NewSuffixes(2 * grid)
	}
	cs.phantom = inst.Sim.Schedule(des.MaxTime, des.PrioInject, func() {})
	inst.Kernel.OnContextSwitch = func(start, end des.Time) {
		cs.windows = mergeWindow(cs.windows, start, end)
	}
	defer func() { inst.Kernel.OnContextSwitch = nil }()

	checkpoint := func(at des.Time) {
		st := &InstanceState{at: at}
		inst.Snapshot(st)
		fw.mark(suffixKey{b: len(cs.states), digest: inst.Kernel.ForwardDigest(cs.phantom)})
		cs.states = append(cs.states, st)
	}
	checkpoint(0)
	next := 0 // the first window whose end is not yet passed
	for g := interval; ; {
		at, dispatch := g, next < len(cs.windows) && cs.windows[next].End <= g
		if dispatch {
			at = cs.windows[next].End
		}
		if at >= fw.horizon {
			break
		}
		if inst.Sim.NextEventAt() <= at {
			inst.Sim.Step()
			continue
		}
		if err := inst.Sim.RunUntil(at); err != nil {
			return fmt.Errorf("fault: capture run: %w", err)
		}
		switch {
		case at == g:
			checkpoint(at)
			g += interval
		case room > 0:
			checkpoint(at)
			room--
		}
		if dispatch {
			next++
		}
	}
	if err := inst.Sim.RunUntil(fw.horizon); err != nil {
		return fmt.Errorf("fault: golden run: %w", err)
	}
	return nil
}

// selectFor returns the index of the fork base for a fault at the given
// instant: the latest checkpoint strictly before it whose committed CPU
// slices all end at or before it (see the prefix-equality argument).
// cpuBusyUntil is monotone over the capture run, so the scan can stop
// at the first violation.
func (cs *checkpointStore) selectFor(at des.Time) int {
	best := 0
	for k := 1; k < len(cs.states); k++ {
		st := cs.states[k]
		if st.at >= at || st.kern.CPUBusyUntil() > at {
			break
		}
		best = k
	}
	return best
}

// trialPlan is one trial's spec with its fork base selected.
type trialPlan struct {
	TrialSpec
	// ckpt is the fork base, filled in per worker (every worker's
	// deterministic capture yields the same checkpoint geometry).
	ckpt int
}

// drawTrial draws trial i of a sampled campaign on its (Seed, i)
// stream, reseeding rng in place: the fault first, then the kernel-hit
// coin, then (only on a hit) the kernel-detect coin. The draws are a
// pure function of (Seed, i), so any slot drawing any trial in any
// order draws what a serial campaign does.
func drawTrial(w Workload, cfg *CampaignConfig, i int, rng *des.Rand) TrialSpec {
	rng.SeedIndexed(cfg.Seed, uint64(i))
	f := drawFault(w, *cfg, rng)
	kh := rng.Bool(cfg.KernelShare)
	kd := kh && rng.Bool(cfg.KernelDetect)
	return TrialSpec{Fault: f, KernelHit: kh, KernelDetected: kd}
}

// forkWorker is the one forked-trial core every engine runs, each
// through a ForkSession (built by newForkSession, the only
// constructor). It owns one instance, its checkpoint store and its
// suffix table (suffix.go) with the recorder of its telemetry; the
// injection callback is a closure created once that reads the
// current-trial fields, so the per-trial loop schedules it without
// allocating. Every trial looks its state up at each post-injection
// boundary, whatever the collector: a hit composes the entry's
// telemetry into the collector, so the collector ends every trial
// holding what a from-scratch trial's would.
type forkWorker struct {
	inst         *Instance
	col          *obs.Collector
	cs           *checkpointStore
	golden       []Write
	goldenEvents []obs.Event
	horizon      des.Time
	table        suffixTable
	tel          *obs.Suffixes // nil without a collector
	// slices is the session's memo of CPU slices (cpu.SliceMemo): the
	// kernel replays a slice whose complete input an earlier one of the
	// session's runs interpreted, the capture run's included.
	slices cpu.SliceMemo

	// Current-trial state read by the injection callback and finish.
	plan             trialPlan
	rec              TrialRecord
	undetectedKernel bool
	hit              *suffixEntry // the entry that ended the trial; nil before one

	injectFn func()

	// Reused buffers (suffix.go): the trial's marks and its composed
	// full-horizon observables, among them the live detection counts
	// and the set of mechanisms the entry that ended it fired.
	marks     []mark
	writes    []Write
	omissions int
	masked    int
	failed    bool
	detected  [kernel.NumMechanisms]uint64
	tail      kernel.MechanismSet
}

// inject applies the current trial's fault — the same decision tree as
// the from-scratch ScratchTrial. A modelled kernel hit is detected with
// probability KernelDetect; a fault landing while the kernel itself
// executes (and not already modelled as a kernel hit) is always caught
// by the kernel EDMs.
func (fw *forkWorker) inject() {
	if fw.plan.KernelHit || fw.inst.Kernel.Activity() == kernel.ActivityKernel {
		fw.rec.Kernel = true
		if fw.plan.KernelDetected || (fw.inst.Kernel.Activity() == kernel.ActivityKernel && !fw.plan.KernelHit) {
			fw.inst.Kernel.ForceFailSilent("kernel EDM: assertion after fault")
		} else {
			fw.undetectedKernel = true
		}
		return
	}
	apply(fw.inst, fw.plan.Fault)
}

// lookup runs at checkpoint boundary b after the injection, once the
// trial has fired every event up to and including the boundary instant
// — the capture run's state when it snapshotted b — and looks the
// trial's (b, forward digest) up in the suffix table. The digest covers
// everything that can influence the remainder of the run — the clock,
// the pending-event multiset, the processor, memory, and all live
// scheduler/TEM state (see kernel.ForwardDigest) — so a hit proves the
// trial's future is the entry's recorded future: the trial ends here
// and finish composes its suffix from the entry. The lookup is not an
// event, so the trial's pending multiset is the model's own, compared
// without correction, and a collector sees exactly the from-scratch
// trial's events. An entry is taken only when its event tail holds
// every event the collector would still retain (obs.Suffix.Fits: a
// capped recording may have dropped them); otherwise the trial
// simulates on. A miss is marked while the table has room, so the entry
// this trial's own suffix makes can end later trials at this state.
//
//nlft:noalloc
func (fw *forkWorker) lookup(b int) bool {
	key := suffixKey{b: b, digest: fw.inst.Kernel.ForwardDigest(des.Event{})}
	e, ok := fw.table.m[key]
	if ok && e.tel.Fits(fw.col) {
		fw.hit = e
		return true
	}
	if !ok && len(fw.table.m)+len(fw.marks) < fw.table.limit {
		fw.mark(key)
	}
	return false
}

// run executes one forked trial and classifies it: restore the fork
// base, swap the phantom for the real injection, run boundary by
// boundary — RunUntil each post-injection boundary, then one lookup —
// to the horizon or to a boundary whose state the table holds, and
// compose. The trial then memoizes its marks.
func (fw *forkWorker) run(plan trialPlan) (TrialRecord, error) {
	fw.restore(plan.ckpt)

	fw.plan = plan
	fw.rec = TrialRecord{Fault: plan.Fault}
	fw.undetectedKernel = false
	fw.hit = nil
	fw.marks = fw.marks[:0]
	fw.inst.Sim.Schedule(plan.Fault.At, des.PrioInject, fw.injectFn)

	for b := plan.ckpt + 1; b < len(fw.cs.states); b++ {
		at := fw.cs.states[b].at
		if at <= plan.Fault.At {
			continue
		}
		if err := fw.inst.Sim.RunUntil(at); err != nil {
			return TrialRecord{}, err
		}
		if fw.lookup(b) {
			return fw.finish(), nil
		}
	}
	if err := fw.inst.Sim.RunUntil(fw.horizon); err != nil {
		return TrialRecord{}, err
	}
	return fw.finish(), nil
}
