package fault

// The suffix table: each fork worker's map from a reached state — a
// checkpoint boundary and the forward digest there — to that state's
// recorded future. A forked trial whose state at a post-injection
// boundary is in the table stops there, and finish completes it by one
// composition rule: the live prefix's writes with the entry's tail
// appended, its omission and masked-release counters with the entry's
// deltas added, the detection mechanisms (ECC's corrections among them)
// it fired united with the set the entry's suffix fired, its failed
// latch or'ed with the entry's, and the entry's telemetry (obs.Suffix)
// composed into the collector.
//
// There is one kind of entry. Every run marks the boundaries it passes
// without a hit, and memoize turns each mark into an entry holding the
// composed tails from the mark on, the deltas since it and the
// mechanisms whose count grew since it. The capture run marks every
// checkpoint, so its entries are the golden ones; golden is only a label
// the work counters count. Deltas, not absolutes: the digest excludes
// pure measurements, so two trials meeting at one state share a future,
// not a past. For the same reason a mark keeps the detection counts, not
// the set fired so far: the mechanisms a suffix fires are those whose
// count grows in it, whatever fired before. Failure latches and the
// digest folds the latch, so the final failed state transfers as it is.
// An entry built from a trial that itself ended on an entry stores the
// concatenated tail and the united set, so lookups never walk chains.
// DESIGN.md ("The suffix table") gives the soundness argument.

import (
	"repro/internal/arena"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// maxSuffixEntries bounds a worker's suffix table, as maxCheckpoints
// bounds its checkpoints. The reachable (boundary, digest) states of a
// workload are finite, so a table saturates on its own — the seed-1
// gate workload's sampled trials reach about 27.6k entries after
// 200,000 trials — and the cap only stops a pathological workload from
// growing it without bound. A full table still serves lookups.
const maxSuffixEntries = 1 << 16

// maxSliceEntries bounds a session's memo of CPU slices (cpu.SliceMemo)
// the same way. Slices are keyed by their complete input, which
// repeats across TEM copies and trials; the seed-1 gate workload's
// sampled trials record about 300 after 2,048 trials and 1,400 after
// 20,000. A full memo still serves hits.
const maxSliceEntries = 1 << 14

// suffixTable is one worker's table and the arenas its entries live in
// (the recorder keeps their telemetry the same way): sized to each
// request for the capture run's entries, then carved from chunks, so
// recording allocates per chunk rather than per entry.
type suffixTable struct {
	m       map[suffixKey]*suffixEntry
	limit   int // marking stops when the table and the trial's marks reach it
	entries arena.Arena[suffixEntry]
	writes  arena.Arena[Write]
}

// chunk switches the table's arenas to chunks of 14–32 KiB.
func (t *suffixTable) chunk() { t.entries.Chunk, t.writes.Chunk = 256, 4096 }

// suffixKey identifies a reached state: a checkpoint boundary index and
// the forward digest there. Distinct states can collide in principle
// (64-bit FNV-1a); the differential suites pin every engine against the
// from-scratch oracle to keep that risk regression-tested.
type suffixKey struct {
	b      int
	digest uint64
}

// suffixEntry is one reached state's recorded future: the suffix's
// writes verbatim, its counter deltas, the mechanisms that fired in it,
// its telemetry, and the final failed state. golden marks the capture
// run's entries.
type suffixEntry struct {
	writes     []Write
	tel        *obs.Suffix // nil without a collector
	dOmissions int
	dMasked    int
	mechs      kernel.MechanismSet // ECC's corrections among them
	failed     bool
	golden     bool
}

// simulatedSuffix is the empty entry a trial that ran to the horizon
// composes with.
var simulatedSuffix suffixEntry

// mark is a boundary a run passed without a hit, with the run's write
// count and counters there, its detection counters among them; the
// recorder holds its telemetry.
type mark struct {
	key       suffixKey
	writesLen int
	omissions int
	masked    int
	detected  [kernel.NumMechanisms]uint64
}

// mark records the live instance at a boundary the run passed without
// a hit; with a collector the recorder marks its registry too. A run's
// first mark starts the recorder's run.
//
//nlft:noalloc
func (fw *forkWorker) mark(key suffixKey) {
	if len(fw.marks) == 0 {
		fw.tel.Reset(fw.col)
	}
	fw.tel.Mark(fw.col)
	fw.marks = append(fw.marks, mark{
		key:       key,
		writesLen: len(fw.inst.Rec.Writes),
		omissions: fw.inst.Rec.Omissions,
		masked:    fw.inst.Rec.MaskedReleases,
		detected:  fw.inst.Kernel.Stats().ErrorsDetected,
	})
}

// finish composes the stopped trial's full-horizon observables — the
// live prefix plus the entry that ended it, or the empty
// simulatedSuffix when it ran to the horizon — and classifies them
// exactly like ScratchTrial. A trial that marked boundaries then ends its
// recorder (the composed extremes joined its last interval) and turns
// its marks into entries, copying its composed tails from the first mark
// on once: every later mark's tail is a suffix of the copy.
func (fw *forkWorker) finish() TrialRecord {
	e := fw.hit
	if e == nil {
		e = &simulatedSuffix
	}
	fw.compose(e)
	rec, mechs := fw.rec, kernel.Grown(&noDetections, &fw.detected)|fw.tail
	rec.Mechanisms = mechs.Names()
	rec.Outcome = classify(fw.failed, fw.writes, fw.omissions, fw.masked, mechs.Has(kernel.MechECC),
		fw.golden, fw.undetectedKernel)
	if t := &fw.table; len(fw.marks) > 0 {
		fw.tel.End(fw.col)
		fw.memoize(t.writes.CopyOf(fw.writes[fw.marks[0].writesLen:]), false)
	}
	return rec
}

// compose completes the run's full-horizon observables: the live prefix
// with entry e's tails appended, deltas added and failed state or'ed,
// and e's telemetry composed into the collector. The mechanisms that
// fired over the horizon are those whose live count is non-zero and
// e's: detection counters only grow, so a set of mechanisms is all a
// record and an entry need (DESIGN.md, "The suffix table").
func (fw *forkWorker) compose(e *suffixEntry) {
	inst := fw.inst
	e.tel.Compose(fw.col)
	failed, _ := inst.Kernel.Failed()
	fw.failed = failed || e.failed
	fw.omissions = inst.Rec.Omissions + e.dOmissions
	fw.masked = inst.Rec.MaskedReleases + e.dMasked
	fw.writes = append(append(fw.writes[:0], inst.Rec.Writes...), e.writes...)
	fw.detected = inst.Kernel.Stats().ErrorsDetected
	fw.tail = e.mechs
}

// memoize turns the composed run's marks into entries: each holds the
// write tail from its mark on, cut from writes (the composed tail from
// the first mark on), the counter deltas since it, the mechanisms whose
// count grew since it and the tail's, and the telemetry the recorder
// cuts for it. A mark keeps counts, not the set fired so far: the run
// may fire a mechanism both before the mark and after it, and a trial
// that meets this state without having fired it must still report it. A
// mark's key missed the table when it was made, and the table does not
// change during a run, so no entry is replaced.
//
//nlft:noalloc
func (fw *forkWorker) memoize(writes []Write, golden bool) {
	t, first := &fw.table, fw.marks[0]
	// Reserving every entry of the run up front keeps the adds below
	// inside one chunk, which never moves under the pointers the map
	// keeps.
	t.entries.Reserve(len(fw.marks))
	for i := range fw.marks {
		mk := &fw.marks[i]
		t.m[mk.key] = t.entries.Add(suffixEntry{
			writes:     writes[mk.writesLen-first.writesLen:],
			tel:        fw.tel.Cut(i),
			dOmissions: fw.omissions - mk.omissions,
			dMasked:    fw.masked - mk.masked,
			mechs:      kernel.Grown(&mk.detected, &fw.detected) | fw.tail,
			failed:     fw.failed,
			golden:     golden,
		})
	}
}
