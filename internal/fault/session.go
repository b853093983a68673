package fault

// ForkSession is every engine's per-slot fork state: ShardRunner holds
// one per slot for fault.Run, shard leases and RunSpecs lists (the
// adaptive engine's rounds, the exhaustive cross-check), and the
// exhaustive verifier (internal/exhaust) one per worker. A
// session is one live instance, a golden-prefix checkpoint store
// captured with the campaign's exact phantom-injection queue geometry,
// the finished golden run's writes and suffix telemetry, the suffix
// table they seed (suffix.go), and the fork core itself (RunTrial,
// Explore).
// The soundness argument in fork.go applies unchanged — a session
// trial is bit-identical to a from-scratch trial of the same placement.

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/obs"
)

// ForkSession is one worker's reusable fork state.
type ForkSession struct {
	// Inst is the live instance every restore rewinds in place.
	Inst *Instance
	// Col is the instance's collector (nil without one); its registry and
	// event buffer rewind with every Restore, and after every trial hold
	// what a from-scratch trial's collector would.
	Col *obs.Collector

	// fw is the trial core bound to Inst; its checkpoint store, golden
	// writes, suffix table and horizon are the session's.
	fw *forkWorker
}

// NewForkSession builds a session at the given checkpoint spacing
// (interval 0 means the campaign default). With withEvents the instance
// carries an events-only collector (obs.NewEventCollector): no event
// cap, so every restore rewinds a complete event stream — the
// exhaustive verifier checks TEM invariants over full traces — and no
// registry, so recording, composing and restoring handle events only.
func NewForkSession(w Workload, interval des.Time, withEvents bool) (*ForkSession, error) {
	var col *obs.Collector
	if withEvents {
		if _, ok := w.(ObservableWorkload); !ok {
			return nil, fmt.Errorf("fault: workload is not observable; cannot collect event streams")
		}
		col = obs.NewEventCollector("")
	}
	return newForkSession(w, col, interval)
}

// newForkSession is the one constructor of every engine's fork state:
// it builds an instance with col attached, captures the golden-prefix
// checkpoints (interval 0 means the campaign default), and runs the
// same instance on to the horizon. That capture run is the golden run:
// its writes are the classification reference, its marks become the
// golden entries, and it is validated here (checkGolden). The phantom
// injection stays queued at MaxTime throughout, so it never fires; a
// capture-then-finish run reproduces a plain golden run's writes and
// events exactly (TestSessionGoldenMatchesGoldenRun). It does sit in the
// queue, so every des.pending_peak sample of the capture run reads one
// above a trial's past its injection: the golden suffix maxima are taken
// net of it. The golden writes and events are copied once, at their
// exact size, and the golden tails and checkpoint rewinds share them.
func newForkSession(w Workload, col *obs.Collector, interval des.Time) (*ForkSession, error) {
	inst, err := newInstance(w, col)
	if err != nil {
		return nil, err
	}
	fw := &forkWorker{inst: inst, col: col, horizon: w.Horizon()}
	fw.slices.Limit = maxSliceEntries
	inst.Kernel.SetSliceMemo(&fw.slices)
	fw.injectFn = func() { fw.inject() }
	cfg := CampaignConfig{SnapshotInterval: interval}
	if err := fw.capture(resolveForkInterval(w, &cfg)); err != nil {
		return nil, err
	}
	if err := checkGolden(inst); err != nil {
		return nil, err
	}
	fw.golden = append([]Write(nil), inst.Rec.Writes...)
	fw.table = suffixTable{m: make(map[suffixKey]*suffixEntry, len(fw.cs.states)), limit: maxSuffixEntries}
	fw.compose(&simulatedSuffix)
	fw.goldenEvents = fw.tel.End(col)
	fw.tel.ShiftGauge(obs.PendingPeak, -1)
	fw.memoize(fw.golden[fw.marks[0].writesLen:], true)
	fw.table.chunk()
	fw.cs.col = fw.tel.Keep() // the checkpoints' collector states
	fw.tel.Chunk()
	return &ForkSession{Inst: inst, Col: col, fw: fw}, nil
}

// Checkpoints is the checkpoint count; boundaries are indexed [0, n).
func (s *ForkSession) Checkpoints() int { return len(s.fw.cs.states) }

// CheckpointAt is the capture instant of boundary k.
func (s *ForkSession) CheckpointAt(k int) des.Time { return s.fw.cs.states[k].at }

// Select returns the fork base for a fault at the given instant: the
// latest checkpoint strictly before it whose committed CPU slices all
// end at or before it (the cpuBusyUntil guard — see fork.go).
func (s *ForkSession) Select(at des.Time) int { return s.fw.cs.selectFor(at) }

// ActivityWindows is the capture run's merged kernel-activity windows:
// exactly what the package-level ActivityWindows returns for the
// session's workload, read off the run the session already made. Their
// ends are the session's dispatch checkpoints. The slice is the
// session's own; callers must not modify it.
func (s *ForkSession) ActivityWindows() []Interval { return s.fw.cs.windows }

// Golden is the fault-free output sequence.
func (s *ForkSession) Golden() []Write { return s.fw.golden }

// GoldenEvents is the fault-free event stream (nil without a collector
// that keeps events).
func (s *ForkSession) GoldenEvents() []obs.Event { return s.fw.goldenEvents }

// GoldenPrefix is the number of events a restore to checkpoint k leaves
// in the collector (0 without one that keeps events): every trial forked
// from k starts with the golden stream's first GoldenPrefix(k) events.
func (s *ForkSession) GoldenPrefix(k int) int { return s.fw.cs.col.Kept(k) }

// SliceStats counts the CPU slices the session's kernel interpreted and
// replayed from its slice memo, and the task cycles they covered, since
// the session was built (its capture run included). Kernel.Stats keeps
// counting simulated cycles either way.
func (s *ForkSession) SliceStats() cpu.SliceStats { return s.fw.slices.Stats }

// Horizon is the simulated duration of one trial.
func (s *ForkSession) Horizon() des.Time { return s.fw.horizon }

// Restore rewinds the session's instance (and collector) to checkpoint
// k and cancels the phantom injection — the state a trial forked from k
// starts in, for probes that inspect it (trials themselves run through
// RunTrial or Explore, which restore on their own).
//
//nlft:noalloc
func (s *ForkSession) Restore(k int) {
	s.fw.restore(k)
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
	return trialPlan{TrialSpec: spec, ckpt: s.fw.cs.selectFor(spec.Fault.At)}
}

// RunTrial executes one forked trial of spec on the session's
// instance: restore the latest sound checkpoint before the fault, swap
// the phantom for the real injection, run boundary by boundary until
// the state is in the suffix table or the horizon is reached, and
// classify. This is the campaign engine's own trial core (fork.go), so
// the record is bit-identical to what a campaign trial of the same plan
// would produce. A hit composes the entry's telemetry into Col, so Col
// then holds exactly the from-scratch trial's registry and event
// stream. The trial memoizes the boundaries it passed without a hit,
// so later trials reaching those states end there.
func (s *ForkSession) RunTrial(spec TrialSpec) (TrialRecord, error) {
	return s.fw.run(s.plan(spec))
}

// Suffix says where an explored trial's suffix came from.
type Suffix int

// Suffix sources.
const (
	// SuffixSimulated: no table entry matched; the trial ran to the
	// horizon.
	SuffixSimulated Suffix = iota
	// SuffixGolden: the trial reached a golden run's state and took the
	// golden suffix.
	SuffixGolden
	// SuffixRecorded: the trial reached a state an earlier explored
	// trial recorded and took that trial's suffix.
	SuffixRecorded
)

// Explored is one explored trial's full-horizon result. Events aliases
// the session collector's buffer, which the next trial overwrites.
type Explored struct {
	// Record is the trial's record, as RunTrial would classify it.
	Record TrialRecord
	// Events is the composed full-horizon event stream.
	Events []obs.Event
	// Prefix is the number of leading events of Events the fork base
	// restored: GoldenPrefix of the base, events of the golden stream.
	Prefix int
	// Omissions is the composed omission count.
	Omissions int
	// Suffix says how the trial ended.
	Suffix Suffix
}

// Explore executes one forked trial of spec like RunTrial and reports
// where its suffix came from. The composed event stream is the session
// collector's, and recorded entries cut their event tails from it, so a
// session that explores is built with events (NewForkSession's
// withEvents) — the exhaustive verifier's.
func (s *ForkSession) Explore(spec TrialSpec) (Explored, error) {
	plan := s.plan(spec)
	rec, err := s.fw.run(plan)
	if err != nil {
		return Explored{}, err
	}
	x := Explored{Record: rec, Events: s.Col.Events(), Prefix: s.GoldenPrefix(plan.ckpt), Omissions: s.fw.omissions}
	switch {
	case s.fw.hit == nil:
		x.Suffix = SuffixSimulated
	case s.fw.hit.golden:
		x.Suffix = SuffixGolden
	default:
		x.Suffix = SuffixRecorded
	}
	return x, nil
}

// RecordedEntries is the number of suffix-table entries the session's
// trials have recorded (golden entries not counted).
func (s *ForkSession) RecordedEntries() int { return len(s.fw.table.m) - len(s.fw.cs.states) }

// GoldenWrites executes the workload fault-free on a fresh instance with
// no checkpoints and returns its output sequence — the classification
// reference for ScratchTrial, and the reference a session's golden run
// is pinned against.
func GoldenWrites(w Workload) ([]Write, error) { return goldenRun(w, nil) }
