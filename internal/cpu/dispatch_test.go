package cpu

import (
	"testing"
)

// TestOpHandlerTableConsistency pins the dense handler map against the
// ISA's source of truth: every assigned opcode has a non-illegal handler
// id, every unassigned opcode maps to hIllegal, and predecoding an
// encoded word extracts exactly the fields the interpretive decoder
// would.
func TestOpHandlerTableConsistency(t *testing.T) {
	for op := 0; op < 256; op++ {
		assigned := opTable[op].format != 0
		if assigned && opHandler[op] == hIllegal {
			t.Errorf("opcode %#02x (%s) is assigned but has no handler", op, opTable[op].name)
		}
		if !assigned && opHandler[op] != hIllegal {
			t.Errorf("opcode %#02x is unassigned but has handler %d", op, opHandler[op])
		}
	}
	for op, info := range opSpecs {
		w := Encode(op, 3, 5, 7, -9)
		var e microOp
		predecodeEntry(&e, w)
		d, ok := decode(w)
		if !ok {
			t.Fatalf("%s did not decode", info.name)
		}
		if e.word != w {
			t.Errorf("%s: tag %#x, want %#x", info.name, e.word, w)
		}
		if e.h == hIllegal {
			t.Errorf("%s predecoded as illegal", info.name)
		}
		if int(e.rd) != d.rd || int(e.ra) != d.ra || int(e.rb) != d.rb || e.imm != d.imm {
			t.Errorf("%s fields: predecoded rd=%d ra=%d rb=%d imm=%d, decoded %+v",
				info.name, e.rd, e.ra, e.rb, e.imm, d)
		}
		if uint64(e.cycles) != info.cycles {
			t.Errorf("%s cycles: predecoded %d, table %d", info.name, e.cycles, info.cycles)
		}
	}
	// An unassigned word predecodes to an illegal entry that still
	// carries the tag (so it keeps trapping until the word changes).
	var e microOp
	predecodeEntry(&e, 0x00FF_FFFF)
	if e.h != hIllegal || e.word != 0x00FF_FFFF {
		t.Errorf("unassigned word predecoded to %+v", e)
	}
}

// predecodedCPU builds a CPU over the program with a predecode cache
// covering the image, SP at the top of RAM.
func predecodedCPU(t *testing.T, src string, ecc bool) (*CPU, *Program) {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(16384, ecc)
	prog.LoadInto(mem)
	mem.EnablePredecode((prog.Origin + prog.SizeBytes()) / 4)
	c := New(mem, nil)
	c.Reset(prog.Origin)
	c.Regs[RegSP] = mem.SizeBytes()
	return c, prog
}

// TestPredecodeTagInvalidation mutates an already-executed instruction
// word through every mutation path and checks the stale micro-op is
// redecoded: the tag compare against live RAM subsumes explicit
// invalidation hooks.
func TestPredecodeTagInvalidation(t *testing.T) {
	const src = `
		.org 0x0000
	start:
		movi r1, 5
		sys 2
	`
	c, prog := predecodedCPU(t, src, false)
	if ev, exc := c.Run(100); exc != nil || ev.Sys != 2 {
		t.Fatalf("first run: ev=%+v exc=%v", ev, exc)
	}
	if c.Regs[1] != 5 {
		t.Fatalf("r1 = %d, want 5", c.Regs[1])
	}

	// Poke: rewrite the immediate; the cached entry must not be reused.
	c.Mem.Poke(prog.Origin, Encode(OpMovi, 1, 0, 0, 7))
	c.Reset(prog.Origin)
	if ev, exc := c.Run(100); exc != nil || ev.Sys != 2 {
		t.Fatalf("after poke: ev=%+v exc=%v", ev, exc)
	}
	if c.Regs[1] != 7 {
		t.Errorf("after poke: r1 = %d, want 7", c.Regs[1])
	}

	// Store: same through the faulting path.
	if exc := c.Mem.Store(prog.Origin, Encode(OpMovi, 1, 0, 0, 9)); exc != nil {
		t.Fatal(exc)
	}
	c.Reset(prog.Origin)
	c.Run(100)
	if c.Regs[1] != 9 {
		t.Errorf("after store: r1 = %d, want 9", c.Regs[1])
	}

	// FlipBit with ECC off corrupts the stored word in place; the next
	// fetch must see the flipped word (here: bit 0 of the immediate).
	c.Mem.FlipBit(prog.Origin, 1)
	c.Reset(prog.Origin)
	c.Run(100)
	if c.Regs[1] != 11 {
		t.Errorf("after flip: r1 = %d, want 11", c.Regs[1])
	}

	// Flipping an opcode bit can turn the instruction illegal; the
	// predecoded engine must trap exactly like the interpretive one.
	c.Mem.Poke(prog.Origin, Encode(OpMovi, 1, 0, 0, 7)^0xFF000000)
	c.Reset(prog.Origin)
	_, exc := c.Run(100)
	if exc == nil || exc.Kind != ExcIllegalOpcode || exc.PC != prog.Origin {
		t.Errorf("after opcode corruption: exc = %v, want illegal-opcode at %#x", exc, prog.Origin)
	}
}

// TestPredecodeFallbackOutsideCoverage: PCs beyond the predecoded image
// run on the interpretive path, instruction by instruction, with
// identical results.
func TestPredecodeFallbackOutsideCoverage(t *testing.T) {
	const src = `
		.org 0x0100
	start:
		movi r1, 42
		sys 2
	`
	prog := MustAssemble(src)
	mem := NewMemory(16384, false)
	prog.LoadInto(mem)
	mem.EnablePredecode(4) // covers words 0..3 only; the program is at 0x100
	c := New(mem, nil)
	c.Reset(prog.Origin)
	c.Regs[RegSP] = mem.SizeBytes()
	ev, exc := c.Run(100)
	if exc != nil || ev.Sys != 2 || c.Regs[1] != 42 {
		t.Fatalf("fallback run: ev=%+v exc=%v r1=%d", ev, exc, c.Regs[1])
	}
}

// TestLatentFlipSurvivesRestore is the pendingFlips × snapshot/restore
// regression: a latent ECC flip captured in a checkpoint must survive a
// restore and fire on the next access, even when the live flip was
// resolved (or the word overwritten) between capture and restore.
func TestLatentFlipSurvivesRestore(t *testing.T) {
	t.Run("single-bit-corrects-again", func(t *testing.T) {
		m := NewMemory(256, true)
		m.Poke(0x40, 0xDEAD)
		m.FlipBit(0x40, 3)
		var st MemoryState
		m.Snapshot(&st)

		// Resolve the live flip: corrected once.
		if v, exc := m.Load(0x40); exc != nil || v != 0xDEAD {
			t.Fatalf("load: v=%#x exc=%v", v, exc)
		}
		if m.CorrectedErrors != 1 || len(m.pendingFlips) != 0 {
			t.Fatalf("after load: corrected=%d pending=%d", m.CorrectedErrors, len(m.pendingFlips))
		}

		// The checkpoint still holds the latent flip and the pre-flip
		// corrected-error count; it must fire again after restore.
		m.Restore(&st)
		if m.CorrectedErrors != 0 || len(m.pendingFlips) != 1 {
			t.Fatalf("after restore: corrected=%d pending=%d", m.CorrectedErrors, len(m.pendingFlips))
		}
		if v, exc := m.Load(0x40); exc != nil || v != 0xDEAD {
			t.Fatalf("post-restore load: v=%#x exc=%v", v, exc)
		}
		if m.CorrectedErrors != 1 {
			t.Errorf("restored flip did not fire: corrected=%d", m.CorrectedErrors)
		}
	})

	t.Run("multi-bit-traps-again", func(t *testing.T) {
		m := NewMemory(256, true)
		m.FlipBit(0x40, 3)
		m.FlipBit(0x40, 9)
		var st MemoryState
		m.Snapshot(&st)

		if _, exc := m.Load(0x40); exc == nil || exc.Kind != ExcECCError {
			t.Fatalf("armed word did not trap: %v", exc)
		}
		// Overwrite the word (clears any ECC state), then restore: the
		// checkpoint's latent double flip must trap again.
		if exc := m.Store(0x40, 1); exc != nil {
			t.Fatal(exc)
		}
		m.Restore(&st)
		if _, exc := m.Load(0x40); exc == nil || exc.Kind != ExcECCError {
			t.Errorf("restored double flip did not trap: %v", exc)
		}
	})

	t.Run("predecoded-fetch-fires-flip", func(t *testing.T) {
		// A latent double flip on an instruction word must trap at fetch
		// identically on both engines.
		const src = `
			.org 0x0000
		start:
			nop
			movi r1, 5
			sys 2
		`
		run := func(predecode bool) (Event, *Exception, uint64) {
			prog := MustAssemble(src)
			mem := NewMemory(16384, true)
			prog.LoadInto(mem)
			if predecode {
				mem.EnablePredecode((prog.Origin + prog.SizeBytes()) / 4)
			}
			c := New(mem, nil)
			c.Reset(prog.Origin)
			mem.FlipBit(4, 2) // the movi word
			mem.FlipBit(4, 27)
			ev, exc := c.Run(100)
			return ev, exc, c.Cycles
		}
		pev, pexc, pcyc := run(true)
		iev, iexc, icyc := run(false)
		if pexc == nil || pexc.Kind != ExcECCError || pexc.PC != 4 {
			t.Fatalf("predecoded: ev=%+v exc=%v", pev, pexc)
		}
		if iexc == nil || *pexc != *iexc || pev != iev || pcyc != icyc {
			t.Errorf("engines diverged: predecoded (%+v, %v, %d), interpretive (%+v, %v, %d)",
				pev, pexc, pcyc, iev, iexc, icyc)
		}
	})
}

// TestDeltaSnapshotPageTraffic pins the dirty-page mechanics: the first
// capture stores every non-zero page and maps the all-zero ones to the
// shared zero page, later captures copy only dirtied pages and share the
// rest structurally, and restores copy back only what diverged.
func TestDeltaSnapshotPageTraffic(t *testing.T) {
	const words = 4 * pageWords // exactly 4 pages
	m := NewMemory(words, false)
	m.Poke(0, 0x11)
	m.Poke(uint32(2*pageWords*4), 0x22) // page 2

	var s1 MemoryState
	m.Snapshot(&s1)
	if got := m.Snap.PagesCopied; got != 2 {
		t.Fatalf("first capture copied %d pages, want the 2 non-zero ones", got)
	}
	if pageID(m, &s1, 1) != zeroPage || pageID(m, &s1, 3) != zeroPage {
		t.Fatalf("all-zero pages 1 and 3 hold ids %d and %d, want the zero page", pageID(m, &s1, 1), pageID(m, &s1, 3))
	}

	// A clean re-capture copies nothing and shares every buffer.
	var s2 MemoryState
	m.Snapshot(&s2)
	if got := m.Snap.PagesCopied; got != 2 {
		t.Fatalf("clean capture copied %d pages total, want still 2", got)
	}
	for p := 0; p < 4; p++ {
		if pageID(m, &s1, p) != pageID(m, &s2, p) {
			t.Fatalf("page %d not shared across clean captures", p)
		}
	}

	// Dirty one page; only it is copied, the others stay shared.
	m.Poke(4, 0x33) // page 0
	var s3 MemoryState
	m.Snapshot(&s3)
	if got := m.Snap.PagesCopied; got != 3 {
		t.Fatalf("dirty capture copied %d pages total, want 3", got)
	}
	if pageID(m, &s3, 0) == pageID(m, &s2, 0) {
		t.Error("dirtied page 0 still shared")
	}
	for p := 1; p < 4; p++ {
		if pageID(m, &s3, p) != pageID(m, &s2, p) {
			t.Errorf("clean page %d not shared", p)
		}
	}

	// Restoring the older state copies back only the diverged page.
	m.Restore(&s1)
	if got := m.Snap.PagesRestored; got != 1 {
		t.Errorf("restore copied %d pages, want 1", got)
	}
	if got := m.Peek(4); got != 0 {
		t.Errorf("restored word = %#x, want 0", got)
	}
	if got := m.Peek(0); got != 0x11 {
		t.Errorf("untouched word = %#x, want 0x11", got)
	}

	// A restore to the state RAM already holds copies nothing.
	m.Restore(&s1)
	if got := m.Snap.PagesRestored; got != 1 {
		t.Errorf("idempotent restore copied pages: total %d, want 1", got)
	}
}

// TestPageStoreFirstCapture pins what a fresh 256 KiB memory's first
// capture stores: its non-zero pages, each once, plus the one shared
// zero page that all 1,021 untouched pages map to, and the id blocks
// of the two bitmap words holding a non-zero page, plus the zero block.
// A later capture of a page zeroed again maps it back to the zero page
// without storing it, and stores its block anew.
func TestPageStoreFirstCapture(t *testing.T) {
	const words = 64 * 1024 // 256 KiB, 1,024 pages
	m := NewMemory(words, false)
	m.Poke(0, 1)
	m.Poke(4, 2) // page 0 again
	m.Poke(uint32(17*PageBytes+8), 3)
	m.Poke(uint32(words*4-4), 4) // the last page
	var st MemoryState
	m.Snapshot(&st)
	if got := m.store.n; got != 3+1 {
		t.Fatalf("first capture stored %d pages, want 3 non-zero + 1 zero", got)
	}
	if got := m.Snap.PagesCopied; got != 3 {
		t.Errorf("first capture copied %d pages, want 3", got)
	}
	if got := len(m.store.chunks); got != 1 {
		t.Errorf("page store holds %d chunks, want 1", got)
	}
	if got := m.blocks.n; got != 2+1 {
		t.Errorf("first capture stored %d id blocks, want the 2 holding a non-zero page + 1 zero", got)
	}
	zero := 0
	for p := 0; p < 1024; p++ {
		if pageID(m, &st, p) == zeroPage {
			zero++
		}
	}
	if zero != 1024-3 {
		t.Errorf("%d pages share the zero page, want %d", zero, 1024-3)
	}

	m.Poke(uint32(17*PageBytes+8), 0)
	var st2 MemoryState
	m.Snapshot(&st2)
	if pageID(m, &st2, 17) != zeroPage || m.store.n != 4 || m.blocks.n != 4 {
		t.Errorf("re-zeroed page 17 holds id %d with %d pages and %d blocks stored, want the zero page, 4 and 4",
			pageID(m, &st2, 17), m.store.n, m.blocks.n)
	}
	m.Restore(&st)
	if got := m.Peek(uint32(17*PageBytes + 8)); got != 3 {
		t.Errorf("restored word = %d, want 3", got)
	}
	m.Restore(&st2)
	if got := m.Peek(uint32(17*PageBytes + 8)); got != 0 {
		t.Errorf("restored zero-page word = %d, want 0", got)
	}
}

// TestDeltaSnapshotFlipBitCaptured: with ECC off, FlipBit corrupts the
// stored word directly — on an otherwise-clean page, the flip must
// still land in the next checkpoint (FlipBit marks the page dirty).
func TestDeltaSnapshotFlipBitCaptured(t *testing.T) {
	m := NewMemory(4*pageWords, false)
	m.Poke(0x40, 0xF0)
	var s1 MemoryState
	m.Snapshot(&s1)

	m.FlipBit(0x40, 0) // clean page: only the dirty bit makes this visible
	var s2 MemoryState
	m.Snapshot(&s2)

	m.Restore(&s1)
	if got := m.Peek(0x40); got != 0xF0 {
		t.Fatalf("pre-flip state = %#x, want 0xF0", got)
	}
	m.Restore(&s2)
	if got := m.Peek(0x40); got != 0xF1 {
		t.Errorf("post-flip checkpoint = %#x, want 0xF1 (flip lost by delta capture)", got)
	}
}

// TestDeltaSnapshotLastPartialPage: a RAM whose size is not a multiple
// of the page size still snapshots and restores exactly.
func TestDeltaSnapshotLastPartialPage(t *testing.T) {
	const words = pageWords + 7
	m := NewMemory(words, false)
	last := uint32((words - 1) * 4)
	m.Poke(last, 0xAB)
	var st MemoryState
	m.Snapshot(&st)
	m.Poke(last, 0xCD)
	m.Restore(&st)
	if got := m.Peek(last); got != 0xAB {
		t.Errorf("partial-page word = %#x, want 0xAB", got)
	}
	// The maintained word digest must match a from-scratch recompute.
	var want uint64
	for i := 0; i < words; i++ {
		want += wordSig(uint32(i), m.words[i])
	}
	if m.wordSum != want {
		t.Errorf("wordSum %#x, want recomputed %#x", m.wordSum, want)
	}
}
