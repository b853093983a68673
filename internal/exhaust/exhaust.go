// Package exhaust is a bounded model checker for the NLFT kernel's
// fault-tolerance guarantees: it enumerates EVERY single-fault
// placement — (time quantum × target × locus × bit) — within one
// hyperperiod of a workload and verifies, on every explored path, that
// the TEM state-machine invariants hold, that no deadline is missed,
// and that the classification matches what the sampling campaign would
// report for the same placement. Sampling estimates probabilities;
// enumeration proves absence (Cheng et al., arXiv 0905.3951, apply the
// same style of exhaustive timed exploration to fault-tolerant
// systems).
//
// The explorer runs every placement on the campaign engine's trial
// core in a recording session (fault.ForkSession.Explore), one fork
// session per slot of the range executor (fault.ExecRange): each placement
// restores the latest sound golden checkpoint before its injection
// instant and simulates only the suffix, with exactly the injection,
// checkpoint selection and boundary lookups a sampled trial gets. The
// session's suffix table bounds the work. It maps a (boundary, forward
// digest) state to that state's recorded future, and starts with the
// golden run's states; every boundary a placement passes without a hit
// becomes an entry once the placement is composed. A later placement
// reaching a state in the table has provably the same future —
// kernel.ForwardDigest folds everything that can influence the
// remainder of a run — so it ends there, its suffix composed from the
// entry. See DESIGN.md ("The suffix table").
//
// The sessions keep events only (no metrics registry), and the TEM
// check of a placement resumes at its fork base: the restored prefix of
// its event stream is the golden run's, which foldGolden checks once
// while saving the checker's state at every checkpoint, so a placement
// reads only the events after its prefix (obs.Checker).
//
// This package keeps only what is the verifier's own: the placement
// space, the guarantee checks over each composed event stream, the
// coverage certificate and the EngineStats accounting of how each
// placement ended. runScratchPlacement is the independent from-scratch
// reference the differential and fuzz tests pin the engine against.
//
// Outcome data (Records, Counts, ByTarget, ByMechanism, Violations,
// and the certificate digest) is bit-identical at any worker count and
// to the from-scratch reference; only EngineStats (how much work the
// table saved) varies with scheduling, because each worker's session
// keeps its own table.
package exhaust

import (
	"fmt"
	"runtime"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/obs"
)

// DefaultQuantum is the placement spacing used when the config does not
// supply one: fine enough to hit every phase of the standard workload's
// copy execution, coarse enough that small configs stay enumerable.
const DefaultQuantum = 50 * des.Microsecond

// Config parameterizes an exhaustive verification.
type Config struct {
	// Quantum is the spacing between enumerated injection instants.
	// Default DefaultQuantum.
	Quantum des.Time
	// Start/End override the enumeration window as the half-open
	// interval [Start, End). Default (End == 0): the workload's
	// InjectionWindow clipped to one hyperperiod.
	Start, End des.Time
	// Targets restricts the enumerated fault classes, in canonical
	// order. Default fault.AllTargets().
	Targets []fault.Target
	// Parallelism is the worker count. Default GOMAXPROCS. Outcome data
	// is bit-identical for any value.
	Parallelism int
	// SnapshotInterval is the fork checkpoint spacing (0 = the campaign
	// engine's default).
	SnapshotInterval des.Time
	// Label tags the coverage certificate.
	Label string
	// OnProgress, when set, is called after every settled placement.
	OnProgress func(done, total int)
}

func (c *Config) applyDefaults() {
	if c.Quantum <= 0 {
		c.Quantum = DefaultQuantum
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Targets == nil {
		c.Targets = fault.AllTargets()
	}
}

// Violation kinds.
const (
	// ViolationTEMInvariant: the placement's event stream breaks a TEM
	// state-machine invariant (see obs.CheckInvariants).
	ViolationTEMInvariant = "tem-invariant"
	// ViolationDeadlineMiss: the placement produced an omission — a
	// release whose recovery did not fit the reserved slack.
	ViolationDeadlineMiss = "deadline-miss"
)

// Violation is one guarantee breach found on an explored path.
type Violation struct {
	// Placement is the canonical placement index.
	Placement int
	// Fault is the placement itself.
	Fault fault.Fault
	// Kind is ViolationTEMInvariant or ViolationDeadlineMiss.
	Kind string
	// Detail explains the breach.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("placement %d (%v): %s: %s", v.Placement, v.Fault, v.Kind, v.Detail)
}

// EngineStats reports how the engine covered the space. Unlike the
// outcome data, these counters are NOT worker-count-invariant: the
// suffix tables are per-worker, so which placement simulates versus
// composes from a recorded entry depends on the striding. They are
// excluded from the certificate digest for exactly that reason.
type EngineStats struct {
	// Placements is the enumerated placement count.
	Placements int
	// Simulated ran their full post-injection suffix.
	Simulated int
	// ConvergedGolden stopped early on a golden suffix-table entry.
	ConvergedGolden int
	// DedupHits stopped early on an entry an earlier placement recorded.
	DedupHits int
	// Memos is the number of recorded (non-golden) entries retained
	// across workers.
	Memos int
	// Workers and Checkpoints describe the engine geometry.
	Workers     int
	Checkpoints int
}

// Result is one exhaustive verification.
type Result struct {
	// Space is the enumerated placement space (nil for VerifyFaults
	// over an ad-hoc list).
	Space *Space
	// Records holds per-placement records in canonical placement order,
	// element-for-element comparable with a planned campaign's Trials.
	Records []fault.TrialRecord
	// Counts, ByTarget and ByMechanism tally outcomes like a campaign
	// Result's.
	Counts      map[fault.Outcome]int
	ByTarget    map[fault.Target]map[fault.Outcome]int
	ByMechanism map[string]int
	// Violations lists every guarantee breach, in placement order. An
	// empty slice is the proof: no single fault in the space breaks a
	// TEM invariant or causes a deadline miss.
	Violations []Violation
	// Stats reports engine coverage accounting.
	Stats EngineStats
	// Cert is the coverage certificate.
	Cert *Certificate
}

// Verify enumerates the workload's placement space and explores every
// placement.
func Verify(w fault.Workload, cfg Config) (*Result, error) {
	cfg.applyDefaults()
	space, err := NewSpace(w, &cfg)
	if err != nil {
		return nil, err
	}
	return run(w, &cfg, space.Faults(), space)
}

// VerifyFaults explores an explicit placement list instead of an
// enumerated space — FuzzPlacementEquivalence and
// TestBoundaryPlacements drive single placements through the engine
// with it and compare against runScratchPlacement.
func VerifyFaults(w fault.Workload, cfg Config, faults []fault.Fault) (*Result, error) {
	cfg.applyDefaults()
	return run(w, &cfg, faults, nil)
}

// fullTrace builds an uncapped events-only collector for an observable
// workload: the verifier's checks read events, never metrics.
func fullTrace(w fault.Workload) (*obs.Collector, error) {
	if _, ok := w.(fault.ObservableWorkload); !ok {
		return nil, fmt.Errorf("exhaust: workload is not observable; invariant checking needs event streams")
	}
	return obs.NewEventCollector(""), nil
}

// run explores every placement of faults on the range executor, one
// fork session per slot (records land at their placement index, so the
// canonical order is independent of workers and scheduling).
func run(w fault.Workload, cfg *Config, faults []fault.Fault, space *Space) (*Result, error) {
	if len(faults) == 0 {
		return nil, fmt.Errorf("exhaust: empty placement set")
	}
	recs := make([]fault.TrialRecord, len(faults))
	pviols := make([][]Violation, len(faults))
	workers := make([]*worker, min(cfg.Parallelism, len(faults)))
	progress := fault.ProgressCounter(cfg.OnProgress, len(faults))
	err := fault.ExecRange(0, len(faults), len(workers), func(k int) (fault.RangeSlot, error) {
		wk, err := newWorker(w, cfg, faults, recs, pviols, progress)
		workers[k] = wk
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	stats := EngineStats{Workers: len(workers)}
	for _, wk := range workers {
		s := wk.stats
		stats.Placements += s.Placements
		stats.Simulated += s.Simulated
		stats.ConvergedGolden += s.ConvergedGolden
		stats.DedupHits += s.DedupHits
		stats.Memos += wk.s.RecordedEntries()
		stats.Checkpoints = max(stats.Checkpoints, wk.s.Checkpoints())
	}
	return newResult(cfg, space, recs, pviols, stats), nil
}

// worker owns one fork session and explores its share of the
// placements on it; it is the placement range's fault.RangeSlot.
type worker struct {
	s        *fault.ForkSession
	bases    []obs.Checker // the TEM checker after each checkpoint's golden prefix
	check    obs.Checker
	tem      []obs.Violation
	faults   []fault.Fault
	recs     []fault.TrialRecord
	viols    [][]Violation
	progress func()
	stats    EngineStats
}

// newWorker builds a fork session with full event streams and checks
// the fault-free baseline the verifier's guarantees are stated against:
// the session's golden event stream keeps the TEM invariants and omits
// no critical release. Records and violations land in recs and viols
// at their placement index.
func newWorker(w fault.Workload, cfg *Config, faults []fault.Fault,
	recs []fault.TrialRecord, viols [][]Violation, progress func()) (*worker, error) {
	s, err := fault.NewForkSession(w, cfg.SnapshotInterval, true)
	if err != nil {
		return nil, err
	}
	bases, vs := foldGolden(s)
	if len(vs) > 0 {
		return nil, fmt.Errorf("exhaust: golden run violates TEM invariants: %v", vs[0])
	}
	if vs := obs.CheckNoCriticalOmission(s.GoldenEvents()); len(vs) > 0 {
		return nil, fmt.Errorf("exhaust: golden run omitted a critical release: %v", vs[0])
	}
	return &worker{s: s, bases: bases, faults: faults, recs: recs, viols: viols, progress: progress}, nil
}

// foldGolden checks s's golden event stream once and returns its TEM
// violations with the checker's state after every checkpoint's golden
// prefix, which each placement forked from the checkpoint resumes.
func foldGolden(s *fault.ForkSession) ([]obs.Checker, []obs.Violation) {
	golden := s.GoldenEvents()
	bases := make([]obs.Checker, s.Checkpoints())
	var c obs.Checker
	var vs []obs.Violation
	for k := range bases {
		vs = c.Check(golden[:s.GoldenPrefix(k)], vs)
		bases[k].Resume(&c)
	}
	return bases, c.Check(golden, vs)
}

// Base selects placement i's fork base.
func (wk *worker) Base(i int) int { return wk.s.Select(wk.faults[i].At) }

// Run explores placement i, checks its guarantees over the composed
// event stream, and files its record and violations.
func (wk *worker) Run(i int) error {
	f := wk.faults[i]
	x, err := wk.s.Explore(fault.TrialSpec{Fault: f})
	if err != nil {
		return fmt.Errorf("exhaust: placement %d: %w", i, err)
	}
	tem, err := wk.checkTEM(i, &x)
	if err != nil {
		return err
	}
	wk.recs[i] = x.Record
	wk.viols[i] = checkPlacement(i, f, tem, x.Record.Outcome, x.Omissions)
	wk.stats.Placements++
	switch x.Suffix {
	case fault.SuffixGolden:
		wk.stats.ConvergedGolden++
	case fault.SuffixRecorded:
		wk.stats.DedupHits++
	default:
		wk.stats.Simulated++
	}
	if wk.progress != nil {
		wk.progress()
	}
	return nil
}

// checkTEM returns the TEM invariant violations past the golden prefix
// of placement i's explored event stream x, indexed within the whole
// stream, and valid until the next call. The check resumes at the fork
// base: the restored prefix is golden, so it reads only the events
// after it.
func (wk *worker) checkTEM(i int, x *fault.Explored) ([]obs.Violation, error) {
	base := &wk.bases[wk.Base(i)]
	if base.Checked() != x.Prefix {
		return nil, fmt.Errorf("exhaust: placement %d: fork base restored %d events, its checker read %d", i, x.Prefix, base.Checked())
	}
	wk.check.Resume(base)
	wk.tem = wk.check.Check(x.Events, wk.tem[:0])
	return wk.tem, nil
}

// newResult assembles an exploration's outcome data from its
// per-placement records and violations, in placement order.
func newResult(cfg *Config, space *Space, recs []fault.TrialRecord, pviols [][]Violation, stats EngineStats) *Result {
	res := &Result{Space: space, Records: recs, Stats: stats}
	res.Counts, res.ByTarget, res.ByMechanism = fault.Tally(recs)
	for _, vs := range pviols {
		res.Violations = append(res.Violations, vs...)
	}
	res.Cert = buildCertificate(cfg, space, res)
	return res
}

// runScratchPlacement is the independent reference path: the campaign
// engine's from-scratch oracle (fault.ScratchTrial) with a full-trace
// collector — a fresh instance, the injection simulated from t=0, no
// checkpoints, no cutoffs, no composition. TestVerifyDifferential,
// TestBoundaryPlacements and FuzzPlacementEquivalence pin the fork
// engine against it (through verifyScratch).
func runScratchPlacement(w fault.Workload, f fault.Fault, golden []fault.Write, idx int) (fault.TrialRecord, []Violation, error) {
	col, err := fullTrace(w)
	if err != nil {
		return fault.TrialRecord{}, nil, err
	}
	rec, inst, err := fault.ScratchTrial(w, fault.TrialSpec{Fault: f}, golden, col)
	if err != nil {
		return fault.TrialRecord{}, nil, err
	}
	return rec, checkPlacement(idx, f, obs.CheckInvariants(col.Events()), rec.Outcome, inst.Rec.Omissions), nil
}

// checkPlacement evaluates the verifier's two guarantees for one
// placement: tem is its complete event stream's TEM invariant
// violations, outcome and omissions its classification and counter.
func checkPlacement(idx int, f fault.Fault, tem []obs.Violation, outcome fault.Outcome, omissions int) []Violation {
	var out []Violation
	for _, v := range tem {
		out = append(out, Violation{Placement: idx, Fault: f,
			Kind: ViolationTEMInvariant, Detail: v.String()})
	}
	if outcome == fault.Omission || omissions > 0 {
		out = append(out, Violation{Placement: idx, Fault: f,
			Kind:   ViolationDeadlineMiss,
			Detail: fmt.Sprintf("%d omission event(s), outcome %v", omissions, outcome)})
	}
	return out
}
