package cpu

import (
	"fmt"
	"maps"
)

// Memory is a word-addressed RAM with an optional SEC-DED ECC model and a
// memory-mapped I/O window, as assumed by the paper (§2.6: "we assume
// that the memory is protected from direct faults using ECC").
//
// With ECC enabled, injected single-bit flips are corrected transparently
// on the next read (counted in CorrectedErrors); a second flip in the
// same word becomes an uncorrectable error that traps. With ECC disabled,
// flips silently corrupt the stored word — the configuration used to
// measure how much of Table 1's protection ECC contributes.
type Memory struct {
	words []uint32
	//nlft:snapshot-skip immutable configuration chosen at construction
	ecc bool
	// pendingFlips tracks injected flip masks per word address while ECC
	// is enabled (the stored data stays intact; the codeword is what is
	// corrupted).
	pendingFlips map[uint32]uint32
	// wordSum is the running commutative digest of all nonzero words
	// (the sum of wordSig over them), maintained incrementally by every
	// word write so StateDigest never has to scan the array. A fresh
	// all-zero RAM sums to zero.
	wordSum uint64
	// CorrectedErrors counts single-bit errors repaired by ECC.
	CorrectedErrors uint64
	// io handles loads/stores in the I/O window, when attached.
	//nlft:snapshot-skip attached bus wiring; the bus snapshots its own state
	io IOBus
	// pre is the predecoded micro-op cache (nil unless EnablePredecode;
	// see dispatch.go). Derived state: entries validate against the live
	// word on every fetch and never feed digests or snapshots.
	//nlft:snapshot-skip derived predecode cache, tag-validated against live words on every fetch
	pre []microOp
	// dirty is the page-granular write bitmap (one bit per pageWords
	// words) driving delta snapshots: every word mutation sets its
	// page's bit, and Snapshot/Restore copy only flagged pages before
	// clearing the map (see snapshot.go for the invariant).
	dirty []uint64
	// shadow tracks, per page, the id of the stored page known to equal
	// RAM content as of the last Snapshot/Restore unless the page has
	// been dirtied since. A fresh memory's shadow names the zero page.
	shadow []uint32
	// shadowBlk mirrors shadow one block of 64 pages (one dirty-bitmap
	// word) at a time: shadowBlk[b] names a stored block holding
	// exactly shadow's ids for block b. A fresh memory's blocks all name
	// the block of zero pages.
	shadowBlk []uint32
	// store holds the immutable page buffers that shadow and every
	// checkpoint's blocks index (see snapshot.go). It only grows:
	// states index into it, so it is rewound by restoring ids, not
	// itself.
	//nlft:snapshot-skip append-only page store that checkpoint ids index; Snapshot appends and Restore reads it, it is never rewound
	store pageStore
	// blocks holds the immutable id blocks that shadowBlk and every
	// checkpoint's block ids index, on the same terms as store.
	//nlft:snapshot-skip append-only block store that checkpoint block ids index; Snapshot appends and Restore reads it, it is never rewound
	blocks pageStore
	// synced is the state whose ids m.shadow equals exactly: the
	// target of the last Snapshot or Restore (nil before the first).
	// Restore from it visits only dirty pages (see snapshot.go).
	//nlft:snapshot-skip synchronization metadata naming the last Snapshot/Restore target, not machine state
	synced *MemoryState
	// log, while a slice memo records a slice, receives every store the
	// slice makes, RAM and I/O alike, in order (nil otherwise).
	//nlft:snapshot-skip recording hook set and cleared within one slice; never live at a Snapshot or Restore
	log *[]memWrite
	// reads, while a slice memo learns a slice's read set, receives the
	// index of every RAM word the slice loads or fetches (nil
	// otherwise). Reads reach it only on the pending-flip path, which
	// the memo keeps taken for the whole slice (SliceMemo.learn).
	//nlft:snapshot-skip learning hook set and cleared within one slice; never live at a Snapshot or Restore
	reads *[]uint32
	// Snap counts snapshot/restore page traffic (measurements only;
	// excluded from digests like the other counters).
	Snap SnapStats
}

// IOBase is the first address of the memory-mapped I/O window.
const IOBase uint32 = 0xFFFF0000

// IOBus receives loads and stores in the I/O window. Port numbers are
// word offsets from IOBase.
type IOBus interface {
	// LoadPort returns the value of an input port.
	LoadPort(port uint32) (uint32, error)
	// StorePort writes an output port.
	StorePort(port uint32, value uint32) error
}

// NewMemory allocates sizeWords words of RAM with the given ECC setting.
func NewMemory(sizeWords int, ecc bool) *Memory {
	if sizeWords <= 0 {
		panic(fmt.Sprintf("cpu: memory size %d", sizeWords))
	}
	nPages := (sizeWords + pageWords - 1) / pageWords
	return &Memory{
		words:        make([]uint32, sizeWords),
		ecc:          ecc,
		pendingFlips: make(map[uint32]uint32),
		dirty:        make([]uint64, (nPages+63)/64),
		shadow:       make([]uint32, nPages),
		shadowBlk:    make([]uint32, (nPages+63)/64),
	}
}

// markDirty flags the page containing word index idx as modified since
// the last snapshot/restore synchronization point.
//
//nlft:noalloc
func (m *Memory) markDirty(idx uint32) {
	p := idx >> pageShift
	m.dirty[p>>6] |= 1 << (p & 63)
}

// AttachIO connects the memory-mapped I/O bus.
func (m *Memory) AttachIO(bus IOBus) { m.io = bus }

// SizeBytes reports the RAM size in bytes.
func (m *Memory) SizeBytes() uint32 { return uint32(len(m.words)) * 4 }

// ECCEnabled reports whether the SEC-DED model is active.
func (m *Memory) ECCEnabled() bool { return m.ecc }

// inRAM reports whether a byte address falls inside RAM.
//
//nlft:noalloc
func (m *Memory) inRAM(addr uint32) bool { return addr/4 < uint32(len(m.words)) }

// isIO reports whether a byte address falls inside the I/O window.
//
//nlft:noalloc
func isIO(addr uint32) bool { return addr >= IOBase }

// Load reads the word at a byte address. It returns an exception for
// misalignment (address error), out-of-range access (bus error), or an
// uncorrectable ECC error.
//
//nlft:noalloc
func (m *Memory) Load(addr uint32) (uint32, *Exception) {
	if addr%4 != 0 {
		return 0, &Exception{Kind: ExcAddressError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
	}
	if isIO(addr) {
		if m.io == nil {
			return 0, &Exception{Kind: ExcBusError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
		}
		v, err := m.io.LoadPort((addr - IOBase) / 4)
		if err != nil {
			return 0, &Exception{Kind: ExcBusError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
		}
		return v, nil
	}
	if !m.inRAM(addr) {
		return 0, &Exception{Kind: ExcBusError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
	}
	if len(m.pendingFlips) != 0 {
		if exc := m.resolveFlip(addr); exc != nil {
			return 0, exc
		}
	}
	return m.words[addr/4], nil
}

// resolveFlip resolves any pending ECC flip on the word holding addr,
// exactly as a load does: a zero mask is dropped, a single-bit error is
// corrected transparently (counted), and a multi-bit error traps. The
// predecoded fetch path shares this helper so latent flips on
// instruction words fire identically on both engines. Every RAM read
// made while a flip is pending passes here, so here a learning slice
// memo logs them (Memory.reads).
//
//nlft:noalloc
func (m *Memory) resolveFlip(addr uint32) *Exception {
	idx := addr / 4
	if m.reads != nil {
		*m.reads = append(*m.reads, idx)
	}
	if !m.ecc {
		return nil
	}
	mask, dirty := m.pendingFlips[idx]
	if !dirty {
		return nil
	}
	switch popcount(mask) {
	case 0:
		delete(m.pendingFlips, idx)
	case 1:
		// Single-bit error: corrected, data intact.
		m.CorrectedErrors++
		delete(m.pendingFlips, idx)
	default:
		// Multi-bit: uncorrectable, detected by SEC-DED.
		delete(m.pendingFlips, idx)
		return &Exception{Kind: ExcECCError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
	}
	return nil
}

// Store writes the word at a byte address, with the same fault semantics
// as Load. A store to a word with a pending ECC error overwrites the
// whole codeword, clearing the error.
//
//nlft:noalloc
func (m *Memory) Store(addr, value uint32) *Exception {
	if addr%4 != 0 {
		return &Exception{Kind: ExcAddressError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
	}
	if isIO(addr) {
		if m.io == nil {
			return &Exception{Kind: ExcBusError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
		}
		if err := m.io.StorePort((addr-IOBase)/4, value); err != nil {
			return &Exception{Kind: ExcBusError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
		}
		if m.log != nil {
			*m.log = append(*m.log, memWrite{addr: addr, value: value})
		}
		return nil
	}
	if !m.inRAM(addr) {
		return &Exception{Kind: ExcBusError, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
	}
	idx := addr / 4
	if m.ecc && len(m.pendingFlips) != 0 {
		delete(m.pendingFlips, idx)
	}
	m.wordSum += wordSig(idx, value) - wordSig(idx, m.words[idx])
	m.words[idx] = value
	m.markDirty(idx)
	if m.log != nil {
		*m.log = append(*m.log, memWrite{addr: addr, value: value})
	}
	return nil
}

// Poke writes a word without fault semantics (loader/kernel use).
//
//nlft:noalloc
func (m *Memory) Poke(addr, value uint32) {
	if addr%4 != 0 || !m.inRAM(addr) {
		//nlft:allow noalloc panic message on a kernel addressing bug; unreachable on correct task layouts
		panic(fmt.Sprintf("cpu: poke at %#x", addr))
	}
	idx := addr / 4
	if m.ecc && len(m.pendingFlips) != 0 {
		delete(m.pendingFlips, idx)
	}
	m.wordSum += wordSig(idx, value) - wordSig(idx, m.words[idx])
	m.words[idx] = value
	m.markDirty(idx)
}

// PendingFlips returns a copy of the pending ECC flip masks by word
// index (for tests and diagnostics; it allocates).
func (m *Memory) PendingFlips() map[uint32]uint32 { return maps.Clone(m.pendingFlips) }

// Peek reads a word without fault semantics (ignores pending ECC state).
//
//nlft:noalloc
func (m *Memory) Peek(addr uint32) uint32 {
	if addr%4 != 0 || !m.inRAM(addr) {
		//nlft:allow noalloc panic message on a kernel addressing bug; unreachable on correct task layouts
		panic(fmt.Sprintf("cpu: peek at %#x", addr))
	}
	return m.words[addr/4]
}

// FlipBit injects a transient bit flip into the word holding the given
// byte address. With ECC enabled, the flip corrupts the codeword and is
// resolved at the next access; with ECC disabled, the stored data is
// corrupted immediately and silently.
func (m *Memory) FlipBit(addr uint32, bit uint) {
	if !m.inRAM(addr) || bit > 31 {
		return
	}
	idx := addr / 4
	if m.ecc {
		m.pendingFlips[idx] ^= 1 << bit
		return
	}
	// Without ECC the stored word itself is corrupted: a data mutation
	// like any other, so the page is dirtied for delta snapshots (a
	// flip on an otherwise-clean page must land in the next checkpoint)
	// and the predecode tag compare redecodes a flipped instruction.
	flipped := m.words[idx] ^ 1<<bit
	m.wordSum += wordSig(idx, flipped) - wordSig(idx, m.words[idx])
	m.words[idx] = flipped
	m.markDirty(idx)
}

func popcount(v uint32) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// Perm is an MMU permission bit set.
type Perm uint8

// MMU permissions.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Region is a contiguous address range [Start, End) with permissions.
type Region struct {
	Start, End uint32
	Perms      Perm
}

// Contains reports whether addr is inside the region with perm allowed.
//
//nlft:noalloc
func (r Region) Contains(addr uint32, perm Perm) bool {
	return addr >= r.Start && addr < r.End && r.Perms&perm == perm
}

// MMU checks accesses against the region set of the currently running
// task, implementing the fault-confinement EDM of Table 1 ("detects
// memory accesses outside the task's allowed memory area").
type MMU struct {
	regions []Region
	enabled bool
	// Violations counts detected violations.
	Violations uint64
}

// NewMMU returns an MMU with no regions, disabled.
func NewMMU() *MMU { return &MMU{} }

// SetRegions installs the accessible regions and enables checking. The
// kernel calls it on every slice, so it refills the MMU's own backing
// array rather than keeping the caller's slice.
//
//nlft:noalloc
func (u *MMU) SetRegions(regions []Region) {
	u.regions = append(u.regions[:0], regions...)
	u.enabled = true
}

// Disable turns off checking (kernel-mode accesses).
func (u *MMU) Disable() { u.enabled = false }

// Enabled reports whether checking is active.
func (u *MMU) Enabled() bool { return u.enabled }

// Check validates an access; a violation increments Violations and
// returns an MMU exception.
//
//nlft:noalloc
func (u *MMU) Check(addr uint32, perm Perm) *Exception {
	if !u.enabled {
		return nil
	}
	for _, r := range u.regions {
		if r.Contains(addr, perm) {
			return nil
		}
	}
	u.Violations++
	return &Exception{Kind: ExcMMUViolation, Addr: addr} //nlft:allow noalloc exception built on the trap path; a fault-free warm run never traps
}
