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
//   - Memory.StateDigest: the maintained RAM word sum (the memo only
//     takes slices that start with no pending ECC flip, so no flip
//     folds in and no correction can happen inside a memoized slice);
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

import "repro/internal/arena"

// memWrite is one store a recorded slice made: a RAM word or, at or
// above IOBase, an I/O port.
type memWrite struct {
	addr, value uint32
}

// SliceStats counts a memo's slices and the cycles they covered:
// interpreted (recorded, started with an ECC flip pending, or met a
// full memo) and replayed.
type SliceStats struct {
	InterpretedSlices, InterpretedCycles uint64
	ReplayedSlices, ReplayedCycles       uint64
}

// sliceEntry is one recorded slice's key and effect.
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
	exc        Exception
	trapped    bool
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
}

// SliceKey is the memo key of a slice of at most bound cycles starting
// from c's current state, with salt identifying the MMU regions and the
// I/O bus's load values (see the file comment).
//
//nlft:noalloc
func SliceKey(c *CPU, bound, salt uint64) uint64 {
	d := digestFold(c.StateDigest(), c.Mem.StateDigest())
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
// while the memo has room and no ECC flip is pending. A nil memo only
// interprets. A replayed exception points into the memo; callers must
// not modify it.
//
//nlft:noalloc
func (m *SliceMemo) RunCycles(c *CPU, maxCycles, salt uint64) (Event, *Exception, uint64) {
	if m == nil {
		return c.RunCycles(maxCycles)
	}
	if len(c.Mem.pendingFlips) != 0 {
		return m.interpret(c, maxCycles)
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
