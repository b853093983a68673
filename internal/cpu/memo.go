package cpu

// Slice replay: a memo of executed CPU slices keyed by their complete
// input, so a slice that repeats one already run applies the recorded
// effect instead of interpreting it. TEM makes repeats the common case:
// every copy of a job starts from the same context, state image and
// latched inputs, so the second copy, a voting third copy and a copy
// restarted after a detected error all re-run the first copy's slices.
//
// A slice (RunCycles with a cycle bound) reads the processor state, RAM,
// the MMU and the I/O bus, and nothing else. The key folds:
//
//   - CPU.StateDigest: registers, PC, flags, signature and the pending
//     ALU fault mask;
//   - Memory.StateDigest: the maintained RAM word sum and the pending
//     ECC flips;
//   - the cycle bound and whether the MMU is enabled;
//   - the caller's salt, which must identify whatever else the slice can
//     observe: the MMU region set and the values the I/O bus returns for
//     loads (the kernel folds the task and its latched inputs).
//
// The effect is everything the slice changes: the final architectural
// state, the cycle and retire deltas, the MMU violation delta, the RAM
// and I/O port stores in order, and the returned event and exception.
// Replay applies RAM stores through Poke, so the word sum, the dirty
// bits and the predecode tags see exactly the writes the interpreter
// made, and port stores through the attached bus.
//
// Only slices that start with no ECC flip pending are recorded. A slice
// that starts with flips pending is looked up under its flip-free key,
// the key the same state has with no flip (Memory.flipFreeDigest). A
// pending flip never changes a word the processor reads: a single-bit
// flip is corrected at the first read, costing no cycle and raising
// nothing, a store overwrites the codeword, and only a multi-bit flip
// on a read word traps. So the slice runs exactly as the flip-free one
// did unless a multi-bit flip lies on a word it reads, and differs in
// its effect only by the corrections. Replay therefore needs the
// entry's read set: the RAM words the slice loads or fetches, which is
// a function of the key. It is learned lazily, by interpreting the
// first flip-pending slice that hits the entry with a read log on (see
// learn). The entry then replays when every pending flip lies on a
// word it does not read, or is single-bit on a word it reads but never
// stores; the replay then corrects each flip on a read word as
// Memory.resolveFlip does. Any other flip pattern is interpreted.

import (
	"slices"

	"repro/internal/arena"
)

// memWrite is one store a recorded slice made: a RAM word or, at or
// above IOBase, an I/O port.
type memWrite struct {
	addr, value uint32
}

// SliceStats counts a memo's slices and the cycles they covered:
// interpreted (recorded, met a full memo, or started with an ECC flip
// pending that no entry could replay) and replayed.
type SliceStats struct {
	InterpretedSlices, InterpretedCycles uint64
	ReplayedSlices, ReplayedCycles       uint64
	// FlipReplayedSlices counts the replayed slices that started with an
	// ECC flip pending (see the file comment).
	FlipReplayedSlices uint64
}

// sliceEntry is one recorded slice's key and effect. The read set
// (learned lazily, see SliceMemo.learn) is the word indices
// memo.reads[readOff : readOff+readN-1]; readN is 0 while it is
// unknown. The two uint32 fields sit in what would be padding, so an
// entry stays 176 bytes.
type sliceEntry struct {
	key        uint64
	regs       [NumRegs]uint32
	pc         uint32
	flags      Flags
	signature  uint32
	alu        uint32
	cycles     uint64
	retired    uint64
	violations uint64
	ev         Event
	readOff    uint32
	exc        Exception
	trapped    bool
	readN      uint32
	stores     []memWrite
}

// SliceMemo is a bounded memo of CPU slices. The zero value records
// nothing; set Limit to the most entries it may hold. A full memo still
// serves hits. Entries and their store logs are carved from arena
// chunks, so recording allocates per chunk rather than per slice.
type SliceMemo struct {
	// Limit caps the entries; recording stops when it is reached.
	Limit int
	// Stats counts the slices run through the memo.
	Stats SliceStats

	// index is an open-addressed table of the entries by key (linear
	// probing, at most half full; keys are already mixed digests).
	index   []*sliceEntry
	n       int
	entries arena.Arena[sliceEntry]
	stores  arena.Arena[memWrite]
	// log receives the recording slice's stores; logBuf is its first
	// backing array, which a slice of a few stores never outgrows.
	log    []memWrite
	logBuf [8]memWrite
	// reads holds every learned read set, sorted per entry; readLog
	// receives a learning slice's reads.
	reads   []uint32
	readLog []uint32
}

// SliceKey is the memo key of a slice of at most bound cycles starting
// from c's current state, with salt identifying the MMU regions and the
// I/O bus's load values (see the file comment).
//
//nlft:noalloc
func SliceKey(c *CPU, bound, salt uint64) uint64 {
	return sliceKey(c, c.Mem.StateDigest(), bound, salt)
}

// sliceKey is SliceKey with the memory digest given: the state's own,
// or its flip-free one.
//
//nlft:noalloc
func sliceKey(c *CPU, mem, bound, salt uint64) uint64 {
	d := digestFold(c.StateDigest(), mem)
	var mmu uint64
	if c.MMU.enabled {
		mmu = 1
	}
	d = digestFold(d, mmu)
	d = digestFold(d, bound)
	return digestFold(d, salt)
}

// Len is the number of recorded slices.
func (m *SliceMemo) Len() int { return m.n }

// RunCycles is c.RunCycles(maxCycles) through the memo: a slice whose
// key is recorded is replayed, any other one interpreted, and recorded
// while the memo has room. A slice that starts with an ECC flip pending
// is never recorded; it replays its flip-free entry when the flips
// allow it (see runFlipped). A nil memo only interprets. A replayed
// exception points into the memo; callers must not modify it.
//
//nlft:noalloc
func (m *SliceMemo) RunCycles(c *CPU, maxCycles, salt uint64) (Event, *Exception, uint64) {
	if m == nil {
		return c.RunCycles(maxCycles)
	}
	if len(c.Mem.pendingFlips) != 0 {
		return m.runFlipped(c, maxCycles, salt)
	}
	key := SliceKey(c, maxCycles, salt)
	if e := m.find(key); e != nil {
		return m.replay(c, e)
	}
	if m.n >= m.Limit {
		return m.interpret(c, maxCycles)
	}
	return m.record(c, key, maxCycles)
}

// runFlipped runs a slice that starts with ECC flips pending. The entry
// under the flip-free key, if any, replays when its read set is known
// and the flips are transparent to it; the replay then applies the
// corrections. The first such slice to hit an entry learns its read
// set instead. Any other slice is interpreted.
//
//nlft:noalloc
func (m *SliceMemo) runFlipped(c *CPU, maxCycles, salt uint64) (Event, *Exception, uint64) {
	e := m.find(sliceKey(c, c.Mem.flipFreeDigest(), maxCycles, salt))
	switch {
	case e == nil:
		return m.interpret(c, maxCycles)
	case e.readN == 0:
		return m.learn(c, e, maxCycles)
	case !m.transparent(c.Mem, e):
		return m.interpret(c, maxCycles)
	}
	ev, exc, used := m.replay(c, e)
	m.correct(c.Mem, e)
	m.Stats.FlipReplayedSlices++
	return ev, exc, used
}

// readSet is entry e's learned read set.
//
//nlft:noalloc
func (m *SliceMemo) readSet(e *sliceEntry) []uint32 {
	return m.reads[e.readOff : e.readOff+e.readN-1]
}

// transparent reports whether every pending flip with a nonzero mask
// lies on a word entry e does not read, or is single-bit on a word it
// reads but never stores. Such flips leave the slice's run unchanged:
// none can trap, and each one on a read word is corrected at that word's
// first read, which no earlier store can have overwritten.
//
//nlft:noalloc
func (m *SliceMemo) transparent(mem *Memory, e *sliceEntry) bool {
	reads := m.readSet(e)
	//nlft:allow nodeterminism an all-of test over the flips; iteration order cannot change the result
	for idx, mask := range mem.pendingFlips {
		if mask == 0 {
			continue
		}
		if _, read := slices.BinarySearch(reads, idx); !read {
			continue
		}
		if popcount(mask) != 1 || storesTo(e, idx) {
			return false
		}
	}
	return true
}

// storesTo reports whether entry e stores to RAM word idx.
//
//nlft:noalloc
func storesTo(e *sliceEntry, idx uint32) bool {
	for _, w := range e.stores {
		if w.addr == idx*4 {
			return true
		}
	}
	return false
}

// correct resolves, after entry e's replay, every flip still pending on
// a word e reads, exactly as the interpreter's first read of it does
// (Memory.resolveFlip): a single-bit flip is counted in CorrectedErrors,
// and every one is dropped. The replay's Pokes already dropped the
// flips on stored words; flips on the other words stay pending.
//
//nlft:noalloc
func (m *SliceMemo) correct(mem *Memory, e *sliceEntry) {
	reads := m.readSet(e)
	//nlft:allow nodeterminism each flip is resolved independently; the count and the remaining set do not depend on order
	for idx, mask := range mem.pendingFlips {
		if _, read := slices.BinarySearch(reads, idx); read {
			if mask != 0 {
				mem.CorrectedErrors++
			}
			delete(mem.pendingFlips, idx)
		}
	}
}

// learnSentinel is a word index outside any RAM: a zero-mask flip on
// it keeps Memory's pending-flip read path, where the read log lives,
// taken for a whole learning slice, even once the slice's real flips
// have resolved.
const learnSentinel = ^uint32(0)

// learn interprets a flip-pending slice whose flip-free entry e has no
// read set yet, logging the index of every RAM word it loads or
// fetches, and keeps the sorted, deduplicated log as e's read set. A
// slice that traps on an uncorrectable flip stopped short of the
// flip-free run, so its log is dropped; every other flip-pending run
// reads exactly the words the flip-free run read. The fault-free read
// path gains nothing: the log is kept on the pending-flip path only.
func (m *SliceMemo) learn(c *CPU, e *sliceEntry, maxCycles uint64) (Event, *Exception, uint64) {
	mem := c.Mem
	m.readLog = m.readLog[:0]
	mem.reads = &m.readLog
	mem.pendingFlips[learnSentinel] = 0
	ev, exc, used := m.interpret(c, maxCycles)
	delete(mem.pendingFlips, learnSentinel)
	mem.reads = nil
	if exc != nil && exc.Kind == ExcECCError {
		return ev, exc, used
	}
	slices.Sort(m.readLog)
	reads := slices.Compact(m.readLog)
	e.readOff, e.readN = uint32(len(m.reads)), uint32(len(reads))+1
	m.reads = append(m.reads, reads...)
	return ev, exc, used
}

// find returns the entry recorded under key, or nil.
//
//nlft:noalloc
func (m *SliceMemo) find(key uint64) *sliceEntry {
	mask := uint64(len(m.index) - 1)
	for i := key & mask; len(m.index) != 0; i = (i + 1) & mask {
		if e := m.index[i]; e == nil || e.key == key {
			return e
		}
	}
	return nil
}

// insert adds e to the index, doubling the index first when it would
// become more than half full.
func (m *SliceMemo) insert(e *sliceEntry) {
	if 2*(m.n+1) > len(m.index) {
		old := m.index
		m.index = make([]*sliceEntry, max(32, 2*len(old)))
		for _, o := range old {
			if o != nil {
				m.place(o)
			}
		}
	}
	m.place(e)
	m.n++
}

// place puts e in the first free slot of its probe sequence.
func (m *SliceMemo) place(e *sliceEntry) {
	mask := uint64(len(m.index) - 1)
	i := e.key & mask
	for m.index[i] != nil {
		i = (i + 1) & mask
	}
	m.index[i] = e
}

// interpret runs the slice on the processor and counts it.
//
//nlft:noalloc
func (m *SliceMemo) interpret(c *CPU, maxCycles uint64) (Event, *Exception, uint64) {
	ev, exc, used := c.RunCycles(maxCycles)
	m.Stats.InterpretedSlices++
	m.Stats.InterpretedCycles += used
	return ev, exc, used
}

// replay applies entry e's effect to c: the final state, the counter
// deltas, and the stores in order.
//
//nlft:noalloc
func (m *SliceMemo) replay(c *CPU, e *sliceEntry) (Event, *Exception, uint64) {
	c.Regs, c.PC, c.Flags, c.Signature, c.aluFaultMask = e.regs, e.pc, e.flags, e.signature, e.alu
	c.Cycles += e.cycles
	c.Retired += e.retired
	c.MMU.Violations += e.violations
	for _, w := range e.stores {
		if isIO(w.addr) {
			_ = c.Mem.io.StorePort((w.addr-IOBase)/4, w.value) // it accepted the store when recorded
		} else {
			c.Mem.Poke(w.addr, w.value)
		}
	}
	m.Stats.ReplayedSlices++
	m.Stats.ReplayedCycles += e.cycles
	if e.trapped {
		return e.ev, &e.exc, e.cycles
	}
	return e.ev, nil, e.cycles
}

// record interprets the slice with the memory logging its stores and
// keeps the effect under key. The first chunks are small, so a session
// that records a few slices pays little for the memo; later ones hold
// 256 entries and 4,096 stores.
func (m *SliceMemo) record(c *CPU, key, maxCycles uint64) (Event, *Exception, uint64) {
	retired, violations := c.Retired, c.MMU.Violations
	if m.log == nil {
		m.log = m.logBuf[:0]
	}
	m.log = m.log[:0]
	c.Mem.log = &m.log
	ev, exc, used := m.interpret(c, maxCycles)
	c.Mem.log = nil
	switch m.n {
	case 0:
		m.entries.Chunk, m.stores.Chunk = 16, 64
	case 16:
		m.entries.Chunk, m.stores.Chunk = 256, 4096
	}
	e := m.entries.Add(sliceEntry{
		key:  key,
		regs: c.Regs, pc: c.PC, flags: c.Flags, signature: c.Signature, alu: c.aluFaultMask,
		cycles: used, retired: c.Retired - retired, violations: c.MMU.Violations - violations,
		ev: ev, stores: m.stores.CopyOf(m.log),
	})
	if exc != nil {
		e.exc, e.trapped = *exc, true
	}
	m.insert(e)
	return ev, exc, used
}
