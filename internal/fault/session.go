package fault

// ForkSession is every engine's per-slot fork state: fault.Run and
// ShardRunner hold one per slot, the adaptive engine (internal/adapt)
// and the exhaustive verifier (internal/exhaust) one per worker. A
// session is one live instance, a golden-prefix checkpoint store
// captured with the campaign's exact phantom-injection queue geometry,
// the finished golden run's writes and event stream so converged
// suffixes can be spliced instead of simulated, and the fork core
// itself (RunTrial, RunHooked). The soundness argument in fork.go
// applies unchanged — a session trial is bit-identical to a
// from-scratch trial of the same placement.

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/obs"
)

// ForkSession is one worker's reusable fork state.
type ForkSession struct {
	// Inst is the live instance every restore rewinds in place.
	Inst *Instance
	// Col is the instance's collector (nil without one); its registry and
	// event buffer rewind with every Restore.
	Col *obs.Collector

	// fw is the trial core bound to Inst; its checkpoint store, golden
	// writes and horizon are the session's.
	fw           *forkWorker
	goldenEvents []obs.Event
}

// NewForkSession builds a session at the given checkpoint spacing
// (interval 0 means the campaign default). With withEvents the instance
// carries a collector with no event cap, so every restore rewinds a
// complete event stream — the exhaustive verifier checks TEM invariants
// over full traces.
func NewForkSession(w Workload, interval des.Time, withEvents bool) (*ForkSession, error) {
	var col *obs.Collector
	if withEvents {
		if _, ok := w.(ObservableWorkload); !ok {
			return nil, fmt.Errorf("fault: workload is not observable; cannot collect event streams")
		}
		col = obs.NewCollector("")
		col.SetEventLimit(0) // unlimited: invariant checks need full traces
	}
	return newForkSession(w, col, interval)
}

// newForkSession is the one constructor of every engine's fork state:
// it builds an instance with col attached, captures the golden-prefix
// checkpoints (interval 0 means the campaign default), and runs the
// same instance on to the horizon. That capture run is the golden run:
// its writes and col's event stream are the classification reference,
// and it is validated here (checkGolden). The phantom injection stays
// queued at MaxTime throughout, so it never fires; a capture-then-finish
// run reproduces a plain golden run's writes and events exactly
// (TestSessionGoldenMatchesGoldenRun).
func newForkSession(w Workload, col *obs.Collector, interval des.Time) (*ForkSession, error) {
	inst, err := newInstance(w, col)
	if err != nil {
		return nil, err
	}
	horizon := w.Horizon()
	cfg := CampaignConfig{SnapshotInterval: interval}
	cs, err := captureCheckpoints(inst, col, resolveForkInterval(w, &cfg), horizon)
	if err != nil {
		return nil, err
	}
	if err := inst.Sim.RunUntil(horizon); err != nil {
		return nil, fmt.Errorf("fault: golden run: %w", err)
	}
	if err := checkGolden(inst); err != nil {
		return nil, err
	}
	fw := &forkWorker{inst: inst, col: col, cs: cs, horizon: horizon,
		golden: append([]Write(nil), inst.Rec.Writes...)}
	fw.injectFn = func() { fw.inject() }
	fw.checkFn = func() { fw.checkBoundary() }
	s := &ForkSession{Inst: inst, Col: col, fw: fw}
	if col != nil {
		s.goldenEvents = append([]obs.Event(nil), col.Events()...)
	}
	return s, nil
}

// Checkpoints is the checkpoint count; boundaries are indexed [0, n).
func (s *ForkSession) Checkpoints() int { return len(s.fw.cs.states) }

// CheckpointAt is the capture instant of boundary k.
func (s *ForkSession) CheckpointAt(k int) des.Time { return s.fw.cs.states[k].at }

// GoldenDigest is the golden run's forward digest at boundary k (net of
// the phantom, so directly comparable with Digest after an injection).
func (s *ForkSession) GoldenDigest(k int) uint64 { return s.fw.cs.states[k].fwdDigest }

// GoldenWritesLen is the golden write count at boundary k.
func (s *ForkSession) GoldenWritesLen(k int) int { return s.fw.cs.states[k].writesLen }

// GoldenEventsLen is the golden event count at boundary k (0 without a
// collector).
func (s *ForkSession) GoldenEventsLen(k int) int { return s.fw.cs.states[k].eventsLen }

// Select returns the fork base for a fault at the given instant: the
// latest checkpoint strictly before it whose committed CPU slices all
// end at or before it (the cpuBusyUntil guard — see fork.go).
func (s *ForkSession) Select(at des.Time) int { return s.fw.cs.selectFor(at) }

// Golden is the fault-free output sequence.
func (s *ForkSession) Golden() []Write { return s.fw.golden }

// GoldenEvents is the fault-free event stream (nil without a collector).
func (s *ForkSession) GoldenEvents() []obs.Event { return s.goldenEvents }

// Horizon is the simulated duration of one trial.
func (s *ForkSession) Horizon() des.Time { return s.fw.horizon }

// Restore rewinds the session's instance (and collector) to checkpoint
// k and cancels the phantom injection — the state a trial forked from k
// starts in, for probes that inspect it (trials themselves run through
// RunTrial or RunHooked, which restore on their own).
//
//nlft:noalloc
func (s *ForkSession) Restore(k int) {
	s.Inst.Restore(s.fw.cs.states[k], s.Col)
	s.Inst.Sim.Cancel(s.fw.cs.phantom)
}

// Digest is the instance's current forward digest with no event
// excluded (valid after Restore: the phantom is cancelled, and the real
// injection has fired by the time boundaries are compared).
//
//nlft:noalloc
func (s *ForkSession) Digest() uint64 { return s.Inst.Kernel.ForwardDigest(des.Event{}) }

// TrialSpec is one externally planned trial: the fault plus the
// campaign's modelled kernel-coin decisions. Both flags are false for
// coin-free populations — the exhaustive verifier's placements, or the
// adaptive campaign's sampled strata, whose kernel-coin branch is
// carried analytically as an exact stratum instead of being simulated.
type TrialSpec struct {
	Fault          Fault
	KernelHit      bool
	KernelDetected bool
}

// plan is spec's trial plan with its fork base selected.
func (s *ForkSession) plan(spec TrialSpec) trialPlan {
	return trialPlan{
		fault:          spec.Fault,
		kernelHit:      spec.KernelHit,
		kernelDetected: spec.KernelDetected,
		ckpt:           s.fw.cs.selectFor(spec.Fault.At),
	}
}

// RunTrial executes one forked trial of spec on the session's
// instance: restore the latest sound checkpoint before the fault, swap
// the phantom for the real injection, run (with the convergence cutoff
// exactly when the session carries no collector — a collector's suffix
// metrics and events cannot be skipped), and classify. This is the campaign engine's own
// trial core (fork.go), so the record is bit-identical to what a
// campaign trial of the same plan would produce.
func (s *ForkSession) RunTrial(spec TrialSpec) (TrialRecord, error) {
	return s.fw.runTrial(s.plan(spec))
}

// TrialEnd reports how a hooked trial ended (see RunHooked).
type TrialEnd struct {
	// Kernel reports that the injection hit kernel execution (the
	// record's Kernel flag).
	Kernel bool
	// ConvergedAt is the boundary at which the trial's forward digest
	// met the golden run's, or -1 if it never did.
	ConvergedAt int
	// Hooked reports that the boundary hook ended the trial.
	Hooked bool
}

// RunHooked executes one forked trial of spec on the trial core with
// hook consulted at every boundary after the injection that does not
// converge to golden (see BoundaryHook). The boundary check is armed
// whatever the session's collector, and the trial is not classified:
// the instance stays in its stop state for the caller to compose its
// suffix from the golden run (ConvergedAt >= 0), from what the hook
// found (Hooked), or from nothing (the trial ran to the horizon).
func (s *ForkSession) RunHooked(spec TrialSpec, hook BoundaryHook) (TrialEnd, error) {
	if err := s.fw.run(s.plan(spec), hook); err != nil {
		return TrialEnd{}, err
	}
	return TrialEnd{Kernel: s.fw.rec.Kernel, ConvergedAt: s.fw.convergedAt, Hooked: s.fw.hooked}, nil
}

// GoldenWrites executes the workload fault-free on a fresh instance with
// no checkpoints and returns its output sequence — the classification
// reference for ScratchTrial, and the reference a session's golden run
// is pinned against.
func GoldenWrites(w Workload) ([]Write, error) { return goldenRun(w, nil) }

// ScratchTrial runs spec as the from-scratch reference trial (runTrial):
// a fresh instance built with col, simulated from t=0 with no fork
// machinery, classified against golden. It is a test oracle, not an
// engine — the differential tests pin every engine's records to it.
// The finished instance is returned for counters the record omits.
func ScratchTrial(w Workload, spec TrialSpec, golden []Write, col *obs.Collector) (TrialRecord, *Instance, error) {
	return runTrial(w, trialPlan{fault: spec.Fault, kernelHit: spec.KernelHit,
		kernelDetected: spec.KernelDetected}, golden, col)
}
