package fault

// The suffix table: each fork worker's map from a reached state — a
// checkpoint boundary and the forward digest there — to that state's
// recorded future. A forked trial whose state at a post-injection
// boundary is in the table stops there, and finish completes it by one
// composition rule: the live prefix's writes and events with the
// entry's tails appended, its omission, masked-release, ECC and
// per-mechanism detection counters with the entry's deltas added, and
// its failed latch or'ed with the entry's final failed state.
//
// Two kinds of entry share that rule. newForkSession seeds one golden
// entry per checkpoint from the capture run: its write tail is the
// golden run's own writes past the boundary (sharing the golden slice),
// and its deltas are zero — the golden suffix is fault-free, and the
// digest's memory fold proves no ECC flip is pending. Its telemetry is
// the capture run's obs.Suffixes: the registry delta from the boundary
// to the horizon, the suffix's histogram and gauge extremes, and the
// event tail, which finish composes into the collector. A trial of a
// recording session marks every boundary it passes without a hit; when
// it finishes, each mark becomes an entry holding the composed tails
// from the mark on and the counter deltas since it. Recorded entries
// carry no registry delta: a trial ending on one gets its event tail,
// and its registry holds the simulated span only. That is why a session
// records exactly when nothing reads its registry (newForkSession's
// record): fault.Run and ShardRunner slots without telemetry, the
// adaptive engine's and the exhaustive verifier's sessions, but not a
// telemetry campaign's. Recorded entries live in the table's chunked
// arenas, and the table stops growing at maxSuffixEntries.
//
// Deltas, not absolutes: the digest excludes pure measurements, so two
// trials meeting at one state share a future, not a past. Failure
// latches and the digest folds the latch, so the final failed state
// transfers as it is. An entry built from a trial that itself ended on
// an entry stores the concatenated tail, so lookups never walk chains.
// DESIGN.md ("The suffix table") gives the soundness argument.

import "repro/internal/obs"

// maxSuffixEntries bounds a worker's suffix table, in the way
// maxCheckpoints bounds its checkpoints. The reachable (boundary,
// digest) states of a workload are finite, so a recording session's
// table saturates on its own — the seed-1 gate workload's sampled
// trials reach about 27.6k entries (4.4 MiB) after 200,000 trials, and
// the exhaustive verifier records about 4k — and the cap only stops a
// pathological workload from growing the table without bound. A full
// table still serves lookups; its trials stop marking.
const maxSuffixEntries = 1 << 16

// Arena chunk lengths, in elements: 24–40 KiB each, so a saturated
// table is a few hundred chunks.
const (
	entryChunk = 256
	writeChunk = 4096
	eventChunk = 512
	mechChunk  = 1024
)

// suffixTable is one worker's table and the arenas its recorded
// entries live in: a recording trial's entries, its one composed
// write and event tail (every mark's tail is a suffix of it), and its
// counter deltas are carved from chunks, so recording allocates per
// chunk rather than per entry.
type suffixTable struct {
	m       map[suffixKey]*suffixEntry
	entries arena[suffixEntry]
	writes  arena[Write]
	events  arena[obs.Event]
	mechs   arena[mechCount]
}

// arena hands out slices of T carved from fixed-capacity chunks. A
// chunk is never appended past its capacity, so its backing array never
// moves and every slice or pointer into it stays valid; a full chunk is
// simply replaced by a fresh one.
type arena[T any] struct {
	free []T // the current chunk: [0, len) handed out, [len, cap) free
}

// reserve makes room for n more elements in the current chunk, starting
// a fresh chunk of at least chunk elements when it is short.
func (a *arena[T]) reserve(n, chunk int) {
	if cap(a.free)-len(a.free) < n {
		a.free = make([]T, 0, max(n, chunk))
	}
}

// copyOf returns a copy of src carved from the arena (nil when src is
// empty).
//
//nlft:noalloc
func (a *arena[T]) copyOf(src []T, chunk int) []T {
	if len(src) == 0 {
		return nil
	}
	a.reserve(len(src), chunk)
	off := len(a.free)
	a.free = append(a.free, src...)
	return a.free[off:len(a.free):len(a.free)]
}

// suffixKey identifies a reached state: a checkpoint boundary index and
// the forward digest there. Distinct states can collide in principle
// (64-bit FNV-1a); the differential suites pin every engine against the
// from-scratch oracle to keep that risk regression-tested.
type suffixKey struct {
	b      int
	digest uint64
}

// mechCount is one detection mechanism's counter, kept in name-sorted
// lists so deltas merge deterministically.
type mechCount struct {
	name string
	n    uint64
}

// suffixEntry is one reached state's recorded future: the suffix's
// writes and events verbatim, its counter deltas, and the final failed
// state. Golden entries have zero deltas, never fail, and take their
// event tail from the checkpoint store's suffix telemetry.
type suffixEntry struct {
	writes     []Write
	events     []obs.Event
	dOmissions int
	dMasked    int
	dECC       uint64
	mechs      []mechCount // detection-counter deltas, sorted by name
	failed     bool
	golden     bool
}

// simulatedSuffix is the empty entry a trial that ran to the horizon
// composes with.
var simulatedSuffix suffixEntry

// mark is a boundary a recording trial passed without a hit, with the
// trial's write and event counts and counters there; its detection
// counters are the worker arena's [mechOff, mechEnd).
type mark struct {
	key              suffixKey
	writesLen        int
	eventsLen        int
	omissions        int
	masked           int
	ecc              uint64
	mechOff, mechEnd int
}

// seedGolden returns a suffix table holding each checkpoint's golden
// entry, cut from the capture run's golden writes.
func seedGolden(cs *checkpointStore, golden []Write) *suffixTable {
	t := &suffixTable{m: make(map[suffixKey]*suffixEntry, len(cs.states))}
	entries := make([]suffixEntry, len(cs.states))
	for b, st := range cs.states {
		entries[b] = suffixEntry{writes: golden[st.writesLen:], golden: true}
		t.m[suffixKey{b: b, digest: st.fwdDigest}] = &entries[b]
	}
	return t
}

// mark records the live instance at a boundary the recording trial
// passed without a hit.
//
//nlft:noalloc
func (fw *forkWorker) mark(key suffixKey) {
	off := fw.collectCounters()
	fw.marks = append(fw.marks, mark{
		key:       key,
		writesLen: len(fw.inst.Rec.Writes),
		eventsLen: len(fw.col.Events()),
		omissions: fw.inst.Rec.Omissions,
		masked:    fw.inst.Rec.MaskedReleases,
		ecc:       fw.inst.Kernel.Mem().CorrectedErrors,
		mechOff:   off,
		mechEnd:   len(fw.arena),
	})
}

// collectCounters appends the live detection counters to the arena as
// one name-sorted segment and returns where the segment starts.
//
//nlft:noalloc
func (fw *forkWorker) collectCounters() int {
	fw.collectOff = len(fw.arena)
	fw.inst.Kernel.EachDetected(fw.collectFn)
	return fw.collectOff
}

// collectMech appends one counter to the arena segment that starts at
// collectOff, keeping the segment name-sorted (insertion into a segment
// that is at most a handful of mechanisms long).
//
//nlft:noalloc
func (fw *forkWorker) collectMech(name string, n uint64) {
	if n == 0 {
		return
	}
	fw.arena = append(fw.arena, mechCount{name: name, n: n})
	for j := len(fw.arena) - 1; j > fw.collectOff; j-- {
		if fw.arena[j-1].name <= fw.arena[j].name {
			break
		}
		fw.arena[j-1], fw.arena[j] = fw.arena[j], fw.arena[j-1]
	}
}

// finish composes the stopped trial's full-horizon observables — the
// live prefix plus the entry that ended it, or the empty
// simulatedSuffix when it ran to the horizon — and classifies them
// exactly like runTrial. The collector gets the entry's telemetry: the
// golden suffix's registry delta and event tail on a golden hit, the
// event tail on a recorded one. A recording trial then turns its marks
// into entries.
func (fw *forkWorker) finish() TrialRecord {
	inst := fw.inst
	e := fw.hit
	switch {
	case e == nil:
		e = &simulatedSuffix
	case e.golden:
		fw.cs.tel.Compose(fw.col, fw.end, fw.cs.states[fw.end].col)
	default:
		fw.col.AppendTail(e.events, 0)
	}
	failed, _ := inst.Kernel.Failed()
	fw.failed = failed || e.failed
	fw.omissions = inst.Rec.Omissions + e.dOmissions
	fw.masked = inst.Rec.MaskedReleases + e.dMasked
	fw.ecc = inst.Kernel.Mem().CorrectedErrors + e.dECC
	fw.writes = append(append(fw.writes[:0], inst.Rec.Writes...), e.writes...)
	off := fw.collectCounters()
	fw.mechs = mergeAdd(fw.mechs[:0], fw.arena[off:], e.mechs)
	fw.arena = fw.arena[:off]

	rec := fw.rec
	fw.names = fw.names[:0]
	for _, mc := range fw.mechs {
		fw.names = append(fw.names, mc.name)
	}
	if fw.ecc > 0 {
		fw.names = insertSorted(fw.names, "ecc")
	}
	if len(fw.names) > 0 {
		rec.Mechanisms = append([]string(nil), fw.names...)
	}
	rec.Outcome = classify(fw.failed, fw.writes, fw.omissions, fw.masked, fw.ecc,
		fw.golden, fw.undetectedKernel)
	if len(fw.marks) > 0 {
		fw.memoize()
	}
	return rec
}

// memoize turns the recording trial's marks into entries: each holds
// the composed tails from its mark on — the event tail cut from the
// collector, which finish completed — and the counter deltas since it.
// The tails from the first mark on are copied into the arenas once;
// every later mark's tail is a suffix of that copy. A mark's key missed
// the table when it was made, and the table does not change during a
// trial, so no entry is replaced.
//
//nlft:noalloc
func (fw *forkWorker) memoize() {
	t := fw.table
	first := fw.marks[0]
	writes := t.writes.copyOf(fw.writes[first.writesLen:], writeChunk)
	events := t.events.copyOf(fw.col.Events()[first.eventsLen:], eventChunk)
	// Reserving every entry of the trial up front keeps the appends
	// below inside one chunk, which never moves under the pointers the
	// map keeps.
	t.entries.reserve(len(fw.marks), entryChunk)
	for _, mk := range fw.marks {
		t.entries.free = append(t.entries.free, suffixEntry{
			writes:     writes[mk.writesLen-first.writesLen:],
			events:     events[mk.eventsLen-first.eventsLen:],
			dOmissions: fw.omissions - mk.omissions,
			dMasked:    fw.masked - mk.masked,
			dECC:       fw.ecc - mk.ecc,
			mechs:      fw.subCounts(fw.arena[mk.mechOff:mk.mechEnd]),
			failed:     fw.failed,
		})
		t.m[mk.key] = &t.entries.free[len(t.entries.free)-1]
	}
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

// subCounts returns the trial's composed counters minus at (both
// name-sorted; counters are monotone over a run, so every boundary
// entry appears at the end with an equal or larger count), keeping
// positive deltas only, carved from the table's arena.
//
//nlft:noalloc
func (fw *forkWorker) subCounts(at []mechCount) []mechCount {
	a := &fw.table.mechs
	a.reserve(len(fw.mechs), mechChunk)
	off := len(a.free)
	j := 0
	for _, e := range fw.mechs {
		for j < len(at) && at[j].name < e.name {
			j++
		}
		n := e.n
		if j < len(at) && at[j].name == e.name {
			n -= at[j].n
			j++
		}
		if n > 0 {
			a.free = append(a.free, mechCount{name: e.name, n: n})
		}
	}
	if len(a.free) == off {
		return nil
	}
	return a.free[off:len(a.free):len(a.free)]
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
