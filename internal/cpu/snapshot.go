package cpu

// This file holds the full-machine snapshot layer used by the
// checkpoint/fork campaign engine (internal/fault). It is distinct from
// the architectural Snapshot/Restore pair above, which models what the
// kernel stores in a TCB (§2.5): that context deliberately excludes the
// cycle counters and any latent ALU fault, because a context switch
// cannot scrub a faulty functional unit. A campaign checkpoint must
// capture *everything* that influences the remainder of the run, so the
// state types here include both.

import "math/bits"

// CPUState is preallocated scratch for CPU.SnapshotState/RestoreState.
type CPUState struct {
	regs         [NumRegs]uint32
	pc           uint32
	flags        Flags
	cycles       uint64
	retired      uint64
	aluFaultMask uint32
	signature    uint32
}

// SnapshotState copies the complete processor state — registers, PC,
// flags, cycle/retire counters, signature, and any pending ALU fault —
// into st.
//
//nlft:noalloc
func (c *CPU) SnapshotState(into *CPUState) {
	into.regs = c.Regs
	into.pc = c.PC
	into.flags = c.Flags
	into.cycles = c.Cycles
	into.retired = c.Retired
	into.aluFaultMask = c.aluFaultMask
	into.signature = c.Signature
}

// RestoreState rewinds the processor to a state captured with
// SnapshotState.
//
//nlft:noalloc
func (c *CPU) RestoreState(from *CPUState) {
	c.Regs = from.regs
	c.PC = from.pc
	c.Flags = from.flags
	c.Cycles = from.cycles
	c.Retired = from.retired
	c.aluFaultMask = from.aluFaultMask
	c.Signature = from.signature
}

// flipEntry is one pending ECC flip mask, flattened out of the map for
// allocation-free capture.
type flipEntry struct {
	addr uint32 // word index
	mask uint32
}

// Delta-snapshot page geometry: 64 words (256 bytes) per page.
const (
	pageShift = 6
	pageWords = 1 << pageShift
	// PageBytes is the delta-snapshot page size in bytes (exported for
	// checkpoint-traffic reporting).
	PageBytes = pageWords * 4
)

// memPage is one checkpoint page buffer.
type memPage struct {
	words [pageWords]uint32
}

// Page-store geometry: pages are stored in chunks of storeChunk pages
// that never move once allocated.
const (
	storeChunkShift = 6
	storeChunk      = 1 << storeChunkShift
)

// pageStore is one memory's append-only checkpoint page store. A page
// id names an immutable buffer: only Snapshot writes a page, into a slot
// it has just appended, and ids are never reused. Chunks hold no
// pointers, so the store costs the collector one pointer per chunk, and
// a checkpoint holds ids rather than buffer pointers. Id 0 is the
// shared all-zero page: every captured page that holds only zeros maps
// to it instead of being copied.
//
// The same type stores id blocks: the page ids of one dirty-bitmap
// word's 64 pages fill one 64-word buffer exactly, and block id 0, all
// zero, names the block whose pages are all the zero page.
type pageStore struct {
	chunks []*[storeChunk]memPage
	n      uint32 // pages stored, the zero page included
}

// page returns the buffer with the given id.
//
//nlft:noalloc
func (s *pageStore) page(id uint32) *memPage {
	return &s.chunks[id>>storeChunkShift][id&(storeChunk-1)]
}

// add stores a copy of src (at most one page of words; a short last
// page leaves the rest zero) and returns its id.
//
//nlft:noalloc
func (s *pageStore) add(src []uint32) uint32 {
	id := s.n
	if int(id>>storeChunkShift) == len(s.chunks) {
		//nlft:allow noalloc cold capture path: a fresh pointer-free chunk, retained by the checkpoint store
		s.chunks = append(s.chunks, new([storeChunk]memPage))
	}
	s.n++
	copy(s.page(id).words[:], src)
	return id
}

// zeroPage is the id of the shared all-zero page. Id 0 of a block
// store likewise names the block whose pages are all the zero page.
const zeroPage = 0

// A block holds the ids of the 64 pages one dirty-bitmap word covers,
// in a buffer of pageWords words.
var _ = [1]struct{}{}[pageWords-64]

// allZero reports whether every word of a page is zero.
//
//nlft:noalloc
func allZero(words []uint32) bool {
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

// SnapStats counts snapshot/restore page traffic (see Memory.Snap).
type SnapStats struct {
	// Snapshots and Restores count calls.
	Snapshots uint64
	Restores  uint64
	// PagesCopied counts pages copied into the page store at capture
	// (the delta actually stored; an all-zero page maps to the shared
	// zero page and is not counted); PagesRestored counts pages copied
	// back into RAM at restore.
	PagesCopied   uint64
	PagesRestored uint64
}

// MemoryState is preallocated scratch for Memory.Snapshot/Restore.
// RAM content is held as one block id per 64 pages into the memory's
// block store, each block holding its pages' ids into the page store,
// with structural sharing across checkpoints of the same Memory (see
// Snapshot).
type MemoryState struct {
	blocks          []uint32
	wordSum         uint64
	flips           []flipEntry
	correctedErrors uint64
}

// Snapshot copies RAM contents, pending ECC flip masks, and the
// corrected-error counter into st. The ECC setting and the attached I/O
// bus are configuration, not state, and are not captured.
//
// RAM capture is a delta: only pages dirtied since the previous
// Snapshot/Restore synchronization point are copied into the page
// store; clean pages share the id already installed in m.shadow. The
// invariant maintained with Restore is that (page p not dirty) implies
// RAM page p equals the stored page m.shadow[p] — every word write sets
// the dirty bit, so a shared page can never go stale. A fresh memory
// is all zero and its shadow names the zero page, so the invariant
// holds from construction and even the first capture visits only the
// pages written since. The capture therefore visits only the set bits
// of the dirty bitmap.
//
// The state holds one id per block of 64 pages (the pages of one
// bitmap word), not one per page: m.shadowBlk[b] names a stored block
// equal to block b of m.shadow. A capture stores a new block only
// where a page id in it changed, and copies the block ids.
//
//nlft:noalloc
func (m *Memory) Snapshot(into *MemoryState) {
	if len(into.blocks) != len(m.shadowBlk) {
		//nlft:allow noalloc cold first-capture sizing; the slice is retained for the state's lifetime
		into.blocks = make([]uint32, len(m.shadowBlk))
	}
	m.Snap.Snapshots++
	if m.store.n == 0 {
		m.store.add(nil)  // the shared zero page, id 0
		m.blocks.add(nil) // the block of zero pages, id 0
	}
	for i, w := range m.dirty {
		changed := false
		for ; w != 0; w &= w - 1 {
			p := i<<6 | bits.TrailingZeros64(w)
			words := m.words[p<<pageShift : min((p+1)<<pageShift, len(m.words))]
			id := uint32(zeroPage)
			if !allZero(words) {
				id = m.store.add(words)
				m.Snap.PagesCopied++
			}
			if m.shadow[p] != id {
				m.shadow[p], changed = id, true
			}
		}
		if changed {
			m.shadowBlk[i] = m.blocks.add(m.shadow[i<<6 : min((i+1)<<6, len(m.shadow))])
		}
	}
	clear(m.dirty)
	copy(into.blocks, m.shadowBlk)
	m.synced = into
	into.wordSum = m.wordSum
	into.flips = into.flips[:0]
	//nlft:allow nodeterminism capture order is irrelevant: the entries refill a map on restore and fold commutatively in digests
	for addr, mask := range m.pendingFlips {
		into.flips = append(into.flips, flipEntry{addr: addr, mask: mask})
	}
	into.correctedErrors = m.CorrectedErrors
}

// Restore rewinds memory to a state captured from the same instance with
// Snapshot. The flip map's buckets are retained across clear+refill, so
// a warm restore does not allocate.
//
// RAM restore is the delta mirror of Snapshot: page p is copied back
// only when it was dirtied since the last synchronization point or when
// the checkpoint holds a different page id than m.shadow[p] — otherwise
// RAM provably already equals the target contents. wordSum is restored
// from the checkpoint directly (it was exact at capture), so no page
// scan or recompute is needed.
//
// Synced-state invariant: every Snapshot(into) and Restore(from) leaves
// m.shadow equal to that state's page ids (and m.shadowBlk to its block
// ids), and m.synced names that state. Restoring m.synced again finds
// every id already installed, so only the set bits of the dirty bitmap
// are visited; restoring any other state first scans its block ids,
// skips each block whose id is already installed (stored blocks are
// immutable, so equal ids mean equal page ids), and in each other
// block installs every differing page id and flags its page. Either
// way exactly the pages the full scan would copy are copied, so
// PagesRestored does not depend on the path. The fork engine runs
// trials in fork-base order, so only a change of base pays the scan.
// States are compared by identity, which is sound because only this
// memory's own Snapshot writes a state's block ids.
//
//nlft:noalloc
func (m *Memory) Restore(from *MemoryState) {
	m.Snap.Restores++
	if m.synced != from {
		for b, id := range from.blocks {
			if m.shadowBlk[b] == id {
				continue
			}
			m.shadowBlk[b] = id
			ids := m.blocks.page(id).words[:]
			for p := b << 6; p < min((b+1)<<6, len(m.shadow)); p++ {
				if pg := ids[p&63]; m.shadow[p] != pg {
					m.shadow[p] = pg
					m.markDirty(uint32(p) << pageShift)
				}
			}
		}
		m.synced = from
	}
	for i, w := range m.dirty {
		for ; w != 0; w &= w - 1 {
			p := i<<6 | bits.TrailingZeros64(w)
			copy(m.words[p<<pageShift:], m.store.page(m.shadow[p]).words[:])
			m.Snap.PagesRestored++
		}
	}
	clear(m.dirty)
	m.wordSum = from.wordSum
	clear(m.pendingFlips)
	for _, f := range from.flips {
		m.pendingFlips[f.addr] = f.mask
	}
	m.CorrectedErrors = from.correctedErrors
}

// MMUState is preallocated scratch for MMU.Snapshot/Restore.
type MMUState struct {
	regions    []Region
	enabled    bool
	violations uint64
}

// Snapshot copies the installed region set, the enable flag, and the
// violation counter into st.
//
//nlft:noalloc
func (u *MMU) Snapshot(into *MMUState) {
	into.regions = append(into.regions[:0], u.regions...)
	into.enabled = u.enabled
	into.violations = u.Violations
}

// Restore rewinds the MMU to a state captured with Snapshot. The region
// slice is refilled in place; SetRegions refills it on the next
// dispatch either way.
//
//nlft:noalloc
func (u *MMU) Restore(from *MMUState) {
	u.regions = append(u.regions[:0], from.regions...)
	u.enabled = from.enabled
	u.Violations = from.violations
}

// digestMix is the SplitMix64 finalizer, duplicated here so the digest
// helpers stay free of cross-package dependencies.
//
//nlft:noalloc
func digestMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// digestFold chains one value into a running digest, order-sensitively.
//
//nlft:noalloc
func digestFold(d, v uint64) uint64 { return digestMix(d ^ digestMix(v)) }

// StateDigest folds the forward-relevant processor state — registers,
// PC, flags, signature, and any pending ALU fault — into a 64-bit
// digest. The cycle and retire counters are excluded deliberately: they
// are measurements of the path taken, not state that influences future
// behaviour, and a forked trial's counters differ from the golden run's
// even when the machines have reconverged.
//
//nlft:noalloc
func (c *CPU) StateDigest() uint64 {
	var d uint64
	for _, r := range c.Regs {
		d = digestFold(d, uint64(r))
	}
	d = digestFold(d, uint64(c.PC))
	var fl uint64
	if c.Flags.Z {
		fl |= 1
	}
	if c.Flags.N {
		fl |= 2
	}
	if c.Flags.C {
		fl |= 4
	}
	if c.Flags.V {
		fl |= 8
	}
	d = digestFold(d, fl)
	d = digestFold(d, uint64(c.Signature))
	d = digestFold(d, uint64(c.aluFaultMask))
	return d
}

// LatentDigest folds the processor state that survives a context load:
// the pending ALU fault mask, which Restore deliberately leaves set.
// The kernel folds it in place of StateDigest while no copy owns the
// processor, since the next copy start or resume overwrites the rest.
//
//nlft:noalloc
func (c *CPU) LatentDigest() uint64 { return digestFold(0, uint64(c.aluFaultMask)) }

// wordSig is one nonzero word's contribution to the maintained RAM
// digest (Memory.wordSum): its avalanche-mixed (index, value) pair. Zero
// words contribute nothing, so a fresh all-zero RAM sums to zero and the
// sum stays position-independent of how the RAM reached its contents.
//
//nlft:noalloc
func wordSig(idx, w uint32) uint64 {
	if w == 0 {
		return 0
	}
	return digestMix(uint64(idx)<<32 | uint64(w))
}

// StateDigest folds RAM contents and pending ECC flips into a 64-bit
// digest. The word contribution is the maintained commutative sum
// updated by every word write (Store, Poke, FlipBit, Restore), so this
// is O(pending flips), not O(RAM size) — the fork engine's convergence
// cutoff calls it at every checkpoint boundary of every trial. The
// corrected-error counter is excluded: it is a measurement, not forward
// state. Pending flips fold commutatively so map iteration order cannot
// perturb the digest.
//
//nlft:noalloc
func (m *Memory) StateDigest() uint64 {
	var flips uint64
	//nlft:allow nodeterminism commutative sum of avalanche-mixed terms; iteration order cannot change the result
	for addr, mask := range m.pendingFlips {
		if mask != 0 {
			flips += digestMix(uint64(addr)<<32 | uint64(mask))
		}
	}
	return digestFold(digestFold(0, m.wordSum), flips)
}

// flipFreeDigest is the StateDigest the memory would have with no ECC
// flip pending: the slice memo's key for a flip-pending state (see
// memo.go). With no flip pending it equals StateDigest.
//
//nlft:noalloc
func (m *Memory) flipFreeDigest() uint64 { return digestFold(digestFold(0, m.wordSum), 0) }
