package exhaust

// The fork-path exploration engine. One worker owns one
// fault.ForkSession (live instance + golden-prefix checkpoints) and
// runs its share of the placement space on the campaign engine's trial
// core (ForkSession.RunHooked): restore the latest sound checkpoint
// before the injection instant, inject, and simulate only the suffix.
// At every checkpoint boundary after the injection the core compares
// the instance's forward digest against the golden run's digest there —
// a match is the convergence cutoff, the golden suffix is spliced on —
// and otherwise hands the boundary to this worker's hook, the
// visited-digest memo table: a match means an earlier placement
// already simulated this exact future, so its recorded suffix (writes,
// events, counter deltas) is composed on instead of re-simulated.
//
// Soundness of the memo composition is argued in DESIGN.md
// ("Digest-dedup soundness"); the load-bearing facts are that
// kernel.ForwardDigest folds every bit of state that can influence the
// remainder of a run (clock, pending-event multiset, processor, memory,
// fail-silent latch, scheduler/TEM state) and that pure measurements
// (detection counters, recorder tallies, the event log) are exactly the
// things it excludes — which is why memos store suffix DELTAS for
// those, not absolutes: two placements meeting at the same digest share
// a future, not a past.
//
// The memo tables are per-worker (no cross-worker synchronization), so
// EngineStats vary with the worker count, but outcome data cannot: a
// memo only ever substitutes a suffix that simulation would have
// reproduced bit-identically.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
)

// memoKey identifies a reached state: checkpoint boundary index plus
// the forward digest there. Digest collisions across distinct states
// are possible in principle (64-bit FNV-1a); the differential suite
// pins the engine against the from-scratch oracle to keep that
// theoretical risk regression-tested.
type memoKey struct {
	b      int
	digest uint64
}

// mechCount is one detection mechanism's counter, kept in sorted-name
// lists so suffix deltas merge deterministically.
type mechCount struct {
	name string
	n    uint64
}

// suffixMemo records everything a placement needs to compose its result
// from a boundary state an earlier placement already simulated past:
// the suffix's outputs and events verbatim, and the suffix's counter
// DELTAS (the two placements' prefixes differ, so absolutes would not
// transfer).
type suffixMemo struct {
	writes     []fault.Write
	events     []obs.Event
	dOmissions int
	dMasked    int
	dECC       uint64
	mechs      []mechCount // detection-counter deltas, sorted by name
	failedEnd  bool
}

// mark is a boundary a simulated placement passed through without a
// memo hit; at finalize it becomes a suffixMemo for later placements.
type mark struct {
	b         int
	digest    uint64
	writesLen int
	eventsLen int
	omissions int
	masked    int
	ecc       uint64
	// mechOff/mechLen locate this boundary's detection counters in the
	// worker's mech arena.
	mechOff, mechLen int
}

// worker owns one fork session and explores its placements
// sequentially; it is the placement range's fault.RangeSlot and its
// own fault.BoundaryHook. The detection-counter callback is a closure
// created once per worker, so boundary marks collect counters without
// allocating closures.
type worker struct {
	s        *fault.ForkSession
	faults   []fault.Fault
	recs     []fault.TrialRecord
	viols    [][]Violation
	progress func()
	visited  map[memoKey]*suffixMemo

	// memo is the current placement's memo hit, set by Boundary.
	memo       *suffixMemo
	collectOff int

	// Reused buffers: steady-state capacity, truncate-refill per
	// placement.
	marks       []mark
	mechArena   []mechCount
	finalWrites []fault.Write
	finalEvents []obs.Event
	curMechs    []mechCount
	endMechs    []mechCount
	mechNames   []string

	collectFn func(string, uint64)

	stats EngineStats
}

// newWorker builds a fork session (with full event streams) and the
// bound callback. It also checks the fault-free baseline the verifier's
// guarantees are stated against: the session's golden event stream
// keeps the TEM invariants and omits no critical release. Records and
// violations land in recs and viols at their placement index.
func newWorker(w fault.Workload, cfg *Config, faults []fault.Fault,
	recs []fault.TrialRecord, viols [][]Violation, progress func()) (*worker, error) {
	s, err := fault.NewForkSession(w, cfg.SnapshotInterval, true)
	if err != nil {
		return nil, err
	}
	if vs := obs.CheckInvariants(s.GoldenEvents()); len(vs) > 0 {
		return nil, fmt.Errorf("exhaust: golden run violates TEM invariants: %v", vs[0])
	}
	if vs := obs.CheckNoCriticalOmission(s.GoldenEvents()); len(vs) > 0 {
		return nil, fmt.Errorf("exhaust: golden run omitted a critical release: %v", vs[0])
	}
	wk := &worker{s: s, faults: faults, recs: recs, viols: viols, progress: progress,
		visited: make(map[memoKey]*suffixMemo)}
	wk.collectFn = func(m string, n uint64) { wk.collectMech(m, n) }
	wk.stats.Checkpoints = s.Checkpoints()
	return wk, nil
}

// Base selects placement i's fork base.
func (wk *worker) Base(i int) int { return wk.s.Select(wk.faults[i].At) }

// Run explores placement i and files its record and violations.
func (wk *worker) Run(i int) error {
	wk.memo = nil
	wk.marks = wk.marks[:0]
	wk.mechArena = wk.mechArena[:0]
	end, err := wk.s.RunHooked(fault.TrialSpec{Fault: wk.faults[i]}, wk)
	if err != nil {
		return fmt.Errorf("exhaust: placement %d: %w", i, err)
	}
	wk.recs[i], wk.viols[i] = wk.finalize(i, end)
	if wk.progress != nil {
		wk.progress()
	}
	return nil
}

// collectMech appends one detection counter to the arena segment that
// starts at collectOff, keeping the segment name-sorted (insertion into
// a segment that is at most a handful of mechanisms long).
//
//nlft:noalloc
func (wk *worker) collectMech(name string, n uint64) {
	if n == 0 {
		return
	}
	wk.mechArena = append(wk.mechArena, mechCount{name: name, n: n})
	for j := len(wk.mechArena) - 1; j > wk.collectOff; j-- {
		if wk.mechArena[j-1].name <= wk.mechArena[j].name {
			break
		}
		wk.mechArena[j-1], wk.mechArena[j] = wk.mechArena[j], wk.mechArena[j-1]
	}
}

// Boundary is the memo hook (fault.BoundaryHook), called by the trial
// core at every boundary a placement reaches without converging to
// golden — the engine's hot loop. A (boundary, digest) pair seen before
// ends the placement on that memo; a first visit is marked so this
// placement's suffix becomes a memo at finalize.
//
//nlft:noalloc
func (wk *worker) Boundary(b int, d uint64) bool {
	if m, ok := wk.visited[memoKey{b: b, digest: d}]; ok {
		wk.memo = m
		return true
	}
	wk.collectOff = len(wk.mechArena)
	wk.s.Inst.Kernel.EachDetected(wk.collectFn)
	wk.marks = append(wk.marks, mark{
		b:         b,
		digest:    d,
		writesLen: len(wk.s.Inst.Rec.Writes),
		eventsLen: len(wk.s.Col.Events()),
		omissions: wk.s.Inst.Rec.Omissions,
		masked:    wk.s.Inst.Rec.MaskedReleases,
		ecc:       wk.s.Inst.Kernel.Mem().CorrectedErrors,
		mechOff:   wk.collectOff,
		mechLen:   len(wk.mechArena) - wk.collectOff,
	})
	return false
}

// finalize composes the placement's full-horizon result from the live
// stop state plus (when a cutoff fired) the golden or memoized suffix,
// classifies it exactly like a campaign trial, evaluates the verifier's
// guarantees, and memoizes every boundary this placement crossed first.
func (wk *worker) finalize(i int, end fault.TrialEnd) (fault.TrialRecord, []Violation) {
	inst := wk.s.Inst
	wk.finalWrites = append(wk.finalWrites[:0], inst.Rec.Writes...)
	wk.finalEvents = append(wk.finalEvents[:0], wk.s.Col.Events()...)
	omissions := inst.Rec.Omissions
	masked := inst.Rec.MaskedReleases
	ecc := inst.Kernel.Mem().CorrectedErrors
	failed, _ := inst.Kernel.Failed()

	wk.curMechs = wk.curMechs[:0]
	wk.collectOff = len(wk.mechArena)
	inst.Kernel.EachDetected(wk.collectFn)
	wk.curMechs = append(wk.curMechs, wk.mechArena[wk.collectOff:]...)
	wk.mechArena = wk.mechArena[:wk.collectOff]

	switch {
	case end.ConvergedAt >= 0:
		b := end.ConvergedAt
		wk.finalWrites = append(wk.finalWrites, wk.s.Golden()[wk.s.GoldenWritesLen(b):]...)
		wk.finalEvents = append(wk.finalEvents, wk.s.GoldenEvents()[wk.s.GoldenEventsLen(b):]...)
		// Golden suffix: fault-free, so all counter deltas are zero and
		// the node cannot fail silent past the cutoff.
		wk.endMechs = append(wk.endMechs[:0], wk.curMechs...)
		wk.stats.ConvergedGolden++
	case wk.memo != nil:
		m := wk.memo
		wk.finalWrites = append(wk.finalWrites, m.writes...)
		wk.finalEvents = append(wk.finalEvents, m.events...)
		omissions += m.dOmissions
		masked += m.dMasked
		ecc += m.dECC
		failed = m.failedEnd
		wk.endMechs = mergeAdd(wk.endMechs[:0], wk.curMechs, m.mechs)
		wk.stats.DedupHits++
	default:
		wk.endMechs = append(wk.endMechs[:0], wk.curMechs...)
		wk.stats.Simulated++
	}
	wk.stats.Placements++

	f := wk.faults[i]
	rec := fault.TrialRecord{Fault: f, Kernel: end.Kernel}
	wk.mechNames = wk.mechNames[:0]
	for _, mc := range wk.endMechs {
		wk.mechNames = append(wk.mechNames, mc.name)
	}
	if ecc > 0 {
		wk.mechNames = insertSorted(wk.mechNames, "ecc")
	}
	if len(wk.mechNames) > 0 {
		rec.Mechanisms = make([]string, len(wk.mechNames))
		copy(rec.Mechanisms, wk.mechNames)
	}
	rec.Outcome = fault.ClassifyRaw(failed, wk.finalWrites, omissions, masked,
		ecc, wk.s.Golden(), false)

	viols := checkPlacement(i, f, wk.finalEvents, rec.Outcome, omissions)

	for _, mk := range wk.marks {
		key := memoKey{b: mk.b, digest: mk.digest}
		if _, ok := wk.visited[key]; ok {
			continue
		}
		wk.visited[key] = &suffixMemo{
			writes:     append([]fault.Write(nil), wk.finalWrites[mk.writesLen:]...),
			events:     append([]obs.Event(nil), wk.finalEvents[mk.eventsLen:]...),
			dOmissions: omissions - mk.omissions,
			dMasked:    masked - mk.masked,
			dECC:       ecc - mk.ecc,
			mechs:      subCounts(wk.endMechs, wk.mechArena[mk.mechOff:mk.mechOff+mk.mechLen]),
			failedEnd:  failed,
		}
		wk.stats.Memos++
	}
	return rec, viols
}

// mergeAdd merges two name-sorted counter lists into dst, summing equal
// names. The appends below are order-dependent by construction — and
// that order is the canonical name sort of the inputs, not arrival
// order, so the result commutes in (a, b).
//
//nlft:merge
func mergeAdd(dst, a, b []mechCount) []mechCount {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].name == b[j].name:
			//nlft:allow mergecommute two-pointer merge of name-sorted inputs; append order is the canonical sort, commutative in (a, b)
			dst = append(dst, mechCount{name: a[i].name, n: a[i].n + b[j].n})
			i++
			j++
		case a[i].name < b[j].name:
			//nlft:allow mergecommute two-pointer merge of name-sorted inputs; append order is the canonical sort, commutative in (a, b)
			dst = append(dst, a[i])
			i++
		default:
			//nlft:allow mergecommute two-pointer merge of name-sorted inputs; append order is the canonical sort, commutative in (a, b)
			dst = append(dst, b[j])
			j++
		}
	}
	//nlft:allow mergecommute sorted tail copy after the two-pointer walk; at most one tail is non-empty
	dst = append(dst, a[i:]...)
	//nlft:allow mergecommute sorted tail copy after the two-pointer walk; at most one tail is non-empty
	dst = append(dst, b[j:]...)
	return dst
}

// subCounts returns end minus at (both name-sorted; counters are
// monotone over a run, so every boundary entry appears at the end with
// an equal or larger count), keeping positive deltas only.
func subCounts(end, at []mechCount) []mechCount {
	var out []mechCount
	j := 0
	for _, e := range end {
		for j < len(at) && at[j].name < e.name {
			j++
		}
		n := e.n
		if j < len(at) && at[j].name == e.name {
			n -= at[j].n
			j++
		}
		if n > 0 {
			out = append(out, mechCount{name: e.name, n: n})
		}
	}
	return out
}

// insertSorted inserts s into a sorted string slice.
func insertSorted(names []string, s string) []string {
	names = append(names, s)
	for j := len(names) - 1; j > 0; j-- {
		if names[j-1] <= names[j] {
			break
		}
		names[j-1], names[j] = names[j], names[j-1]
	}
	return names
}
