package cpu

import "testing"

// FuzzAssemble exercises the assembler with arbitrary source text:
// it must reject or accept, never panic, and anything accepted must
// disassemble cleanly.
func FuzzAssemble(f *testing.F) {
	f.Add("movi r1, 5\nsys 2")
	f.Add(".org 0x100\nstart: jmp start")
	f.Add("li r2, 0xDEADBEEF\npush r2\npop r3")
	f.Add("loop: addi r1, r1, -1\ncmpi r1, 0\nbgt loop")
	f.Add("task: ld r4, [r5+8]\nst r4, [r5-4]\njr lr")
	f.Add("; comment only")
	f.Add(".word 0xFFFFFFFF")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		for _, w := range prog.Words {
			if Disassemble(w) == "" {
				t.Errorf("assembled word %#x has empty disassembly", w)
			}
		}
	})
}

// FuzzInterpreter loads arbitrary words as a program and steps the CPU:
// every path must end in a trap or keep retiring, never panic.
func FuzzInterpreter(f *testing.F) {
	f.Add([]byte{0x07, 0x10, 0x00, 0x05, 0xA1, 0x00, 0x00, 0x02})
	f.Add([]byte{0xEE, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		mem := NewMemory(128, false)
		for i := 0; i+3 < len(raw) && i/4 < 128; i += 4 {
			w := uint32(raw[i])<<24 | uint32(raw[i+1])<<16 |
				uint32(raw[i+2])<<8 | uint32(raw[i+3])
			mem.Poke(uint32(i), w)
		}
		c := New(mem, nil)
		c.Reset(0)
		c.Regs[RegSP] = 128 * 4
		for i := 0; i < 500; i++ {
			if _, exc := c.Step(); exc != nil {
				return
			}
		}
	})
}

// FuzzDispatchDifferential runs the predecoded dispatch engine and the
// interpretive reference in lockstep over arbitrary program words, with
// input-derived bit flips injected mid-run into both machines, and
// requires bit-identical behaviour after every instruction: same events,
// same exceptions (kind, address, PC), same cycle charges, and same
// state digests. This is the oracle for the predecode-invalidation
// invariant — a flip that lands on an already-decoded instruction word
// must be picked up by the tag compare.
func FuzzDispatchDifferential(f *testing.F) {
	f.Add([]byte{0x07, 0x10, 0x00, 0x05, 0xA1, 0x00, 0x00, 0x02}, false)
	f.Add([]byte{0x07, 0x10, 0x00, 0x05, 0xA1, 0x00, 0x00, 0x02}, true)
	f.Add([]byte{0xEE, 0x00, 0x00, 0x00}, false)
	f.Add([]byte{0x61, 0x00, 0x00, 0x00, 0x73, 0x00, 0xFF, 0xFF}, true)
	f.Fuzz(func(t *testing.T, raw []byte, ecc bool) {
		build := func(predecode bool) *CPU {
			mem := NewMemory(128, ecc)
			for i := 0; i+3 < len(raw) && i/4 < 128; i += 4 {
				w := uint32(raw[i])<<24 | uint32(raw[i+1])<<16 |
					uint32(raw[i+2])<<8 | uint32(raw[i+3])
				mem.Poke(uint32(i), w)
			}
			if predecode {
				mem.EnablePredecode(128)
			}
			c := New(mem, nil)
			c.Reset(0)
			c.Regs[RegSP] = 128 * 4
			return c
		}
		a := build(true)  // predecoded
		b := build(false) // interpretive reference
		for i := 0; i < 300; i++ {
			if len(raw) > 0 && i%16 == 7 {
				// Identical input-derived flips into both machines; odd
				// selectors arm a second flip in the same word so the
				// ECC variant exercises uncorrectable traps at fetch.
				k := raw[(i/16)%len(raw)]
				addr := uint32(k%128) * 4
				bit := uint(k >> 3)
				a.Mem.FlipBit(addr, bit)
				b.Mem.FlipBit(addr, bit)
				if k&1 == 1 {
					a.Mem.FlipBit(addr, (bit+7)%32)
					b.Mem.FlipBit(addr, (bit+7)%32)
				}
			}
			eva, exca, cyca := a.RunCycles(1)
			evb, excb, cycb := b.RunCycles(1)
			if eva != evb || cyca != cycb {
				t.Fatalf("step %d: predecoded (ev=%+v, %d cycles), interpretive (ev=%+v, %d cycles)",
					i, eva, cyca, evb, cycb)
			}
			if (exca == nil) != (excb == nil) || (exca != nil && *exca != *excb) {
				t.Fatalf("step %d: exceptions diverged: predecoded %v, interpretive %v", i, exca, excb)
			}
			if a.Regs != b.Regs || a.PC != b.PC || a.Flags != b.Flags ||
				a.Signature != b.Signature || a.Cycles != b.Cycles || a.Retired != b.Retired {
				t.Fatalf("step %d: CPU state diverged: predecoded pc=%#x digest=%#x, interpretive pc=%#x digest=%#x",
					i, a.PC, a.StateDigest(), b.PC, b.StateDigest())
			}
			if a.Mem.StateDigest() != b.Mem.StateDigest() ||
				a.Mem.CorrectedErrors != b.Mem.CorrectedErrors {
				t.Fatalf("step %d: memory diverged: digests %#x vs %#x, corrected %d vs %d",
					i, a.Mem.StateDigest(), b.Mem.StateDigest(),
					a.Mem.CorrectedErrors, b.Mem.CorrectedErrors)
			}
			if exca != nil {
				return // both trapped identically
			}
		}
	})
}

// FuzzSliceReplay runs one slice of arbitrary program words from an
// arbitrary register file on three identical machines: plainly
// interpreted on the first, interpreted and recorded by a memo on the
// second, and replayed from that memo on the third. The recording run
// must equal the plain one, and the replay must leave the third
// machine exactly as the recording left the second: every register,
// PC, flag, signature, pending ALU mask, cycle and retire count, MMU
// violation, RAM word, the word sum and the dirty pages, the corrected
// errors and pending ECC flips, the port writes in order, the event
// and the exception. It then starts the same slice with up to two ECC
// flips pending (flips; see injectFlips) three more times: plainly,
// and twice through the memo, which looks each up under the recorded
// flip-free key, learns the read set on the first and, where the flips
// allow it, replays on the second. Both must equal the plain run.
func FuzzSliceReplay(f *testing.F) {
	// A store to RAM, an input load, a port store and an event, with a
	// single-bit flip on an instruction word it fetches.
	f.Add(programBytes(`
	movi r1, 5
	st r1, [r0+64]
	li r2, 0xFFFF0000
	ld r3, [r2+4]
	add r3, r3, r1
	st r3, [r2+16]
	sys 2
`), uint64(1), uint16(50), uint32(0), false, uint32(3<<7|2))
	// A loop through the ALU with a pending mask, cut by the bound, with
	// the MMU on, and a multi-bit flip on the stack it pushes to.
	f.Add(programBytes(`
	movi r5, 40
loop:
	add r6, r6, r5
	push r6
	addi r5, r5, -1
	cmpi r5, 0
	bgt loop
	sys 2
`), uint64(2), uint16(90), uint32(1<<7), true, uint32(1<<12|9<<7|126))
	// A store the MMU refuses, and a wild jump, with flips on a word
	// nothing reads: multi-bit and single-bit.
	f.Add(programBytes(`
	movi r1, 8
	st r1, [r1+0]
	jr r4
`), uint64(3), uint16(30), uint32(0), true, uint32((1<<12|100)<<16|4<<7|101))
	f.Add([]byte{0xEE, 0x00, 0x00, 0x00}, uint64(4), uint16(4), uint32(0), false, uint32(0))
	// Stored before a read, read then stored, read only and stored
	// only, each with a single-bit flip on its word or its neighbour's.
	rule := programBytes(flipRuleSrc)
	for k, w := range []uint32{64, 65, 66, 67} {
		f.Add(rule, uint64(5+k), uint16(60), uint32(0), false, uint32(w|uint32(k)<<7))
	}
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, bound uint16, alu uint32, mmu bool, flips uint32) {
		maxCycles := uint64(bound%512) + 1
		machine := func(flipped bool) *replayRun {
			c, bus := replayMachine(raw, seed, alu, mmu)
			if flipped {
				injectFlips(c.Mem, flips)
			}
			return &replayRun{c: c, bus: bus}
		}
		ref, a, b := machine(false), machine(false), machine(false)
		memo := &SliceMemo{Limit: 1}
		key := SliceKey(a.c, maxCycles, 9)
		if SliceKey(b.c, maxCycles, 9) != key {
			t.Fatal("identical machines key differently")
		}
		ref.plain(maxCycles)
		a.through(memo, maxCycles)
		b.through(memo, maxCycles)
		if got := memo.Stats; got.InterpretedSlices != 1 || got.ReplayedSlices != 1 || memo.Len() != 1 {
			t.Fatalf("memo stats %+v with %d entries; want one slice recorded and one replayed", got, memo.Len())
		}
		sameRun(t, "recorded vs plain", a, ref)
		sameRun(t, "replayed vs recorded", b, a)
		// The replay installed the same RAM, so the next checkpoint of
		// either machine holds the same words.
		var ma, mb MemoryState
		a.c.Mem.Snapshot(&ma)
		b.c.Mem.Snapshot(&mb)
		if ma.wordSum != mb.wordSum || a.c.Mem.Snap.PagesCopied != b.c.Mem.Snap.PagesCopied {
			t.Fatalf("next snapshots differ: word sums %#x, %#x; %d, %d pages copied",
				ma.wordSum, mb.wordSum, a.c.Mem.Snap.PagesCopied, b.c.Mem.Snap.PagesCopied)
		}

		fref, f1, f2 := machine(true), machine(true), machine(true)
		if len(f1.c.Mem.pendingFlips) == 0 {
			return
		}
		if got := sliceKey(f1.c, f1.c.Mem.flipFreeDigest(), maxCycles, 9); got != key {
			t.Fatal("the flip-free key differs from the recorded slice's key")
		}
		fref.plain(maxCycles)
		before := memo.Stats
		f1.through(memo, maxCycles)
		if d := memo.Stats.InterpretedSlices - before.InterpretedSlices; d != 1 || memo.Len() != 1 {
			t.Fatalf("the first flip-pending slice: %d interpreted, %d entries; want it interpreted and nothing recorded", d, memo.Len())
		}
		f2.through(memo, maxCycles)
		sameRun(t, "learning run with flips pending vs plain", f1, fref)
		sameRun(t, "second run with flips pending vs plain", f2, fref)
	})
}
