package cpu

import (
	"errors"
	"maps"
	"slices"
	"testing"
	"unsafe"
)

// replayBus is a scripted I/O bus: ports 0–3 return fixed inputs,
// ports 4–7 accept stores, and any other port fails the access.
type replayBus struct {
	in  [4]uint32
	out []memWrite
}

func (b *replayBus) LoadPort(port uint32) (uint32, error) {
	if port < 4 {
		return b.in[port], nil
	}
	return 0, errors.New("no input port")
}

func (b *replayBus) StorePort(port, value uint32) error {
	if port < 4 || port >= 8 {
		return errors.New("no output port")
	}
	b.out = append(b.out, memWrite{addr: port, value: value})
	return nil
}

// programBytes assembles src at address 0 into FuzzSliceReplay's
// big-endian program bytes.
func programBytes(src string) []byte {
	var raw []byte
	for _, w := range MustAssemble(src).Words {
		raw = append(raw, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return raw
}

// replayMachine builds one machine of FuzzSliceReplay: raw as program
// words from address 0 (predecoded), registers drawn from seed, a
// pending ALU mask, and with mmu the program's first half executable
// and readable, its second half and the stack read-write, and the
// first eight I/O ports open.
func replayMachine(raw []byte, seed uint64, alu uint32, mmu bool) (*CPU, *replayBus) {
	const words = 128
	mem := NewMemory(words, true)
	for i := 0; i+3 < len(raw) && i/4 < words; i += 4 {
		mem.Poke(uint32(i), uint32(raw[i])<<24|uint32(raw[i+1])<<16|uint32(raw[i+2])<<8|uint32(raw[i+3]))
	}
	mem.EnablePredecode(words)
	bus := &replayBus{in: [4]uint32{7, 1 << 31, 0xFFFF, 3}}
	mem.AttachIO(bus)
	c := New(mem, nil)
	c.Reset(0)
	for r := range c.Regs {
		seed = digestMix(seed + 0x9e3779b97f4a7c15)
		if r%3 == 0 {
			c.Regs[r] = uint32(seed) % (words * 4) // an address into RAM
		} else {
			c.Regs[r] = uint32(seed >> 32)
		}
	}
	c.Regs[RegSP] = words * 4
	c.Flags = Flags{Z: seed&1 != 0, N: seed&2 != 0, C: seed&4 != 0, V: seed&8 != 0}
	c.Signature = uint32(seed >> 8)
	c.InjectALUFault(alu)
	if mmu {
		c.MMU.SetRegions([]Region{
			{Start: 0, End: words * 2, Perms: PermRead | PermExec},
			{Start: words * 2, End: words * 4, Perms: PermRead | PermWrite},
			{Start: IOBase, End: IOBase + 32, Perms: PermRead | PermWrite},
		})
	}
	return c, bus
}

// TestSliceMemoBounded fills a memo to its limit and checks that it
// stops recording there yet still replays what it holds, and that a
// slice starting with a pending ECC flip is interpreted, not recorded.
func TestSliceMemoBounded(t *testing.T) {
	prog := programBytes("movi r1, 5\nst r1, [r0+64]\nsys 2")
	memo := &SliceMemo{Limit: 3}
	for seed := uint64(0); seed < 5; seed++ {
		c, _ := replayMachine(prog, seed, 0, false)
		memo.RunCycles(c, 20, 0)
	}
	if memo.Len() != 3 || memo.Stats.InterpretedSlices != 5 {
		t.Fatalf("%d entries after 5 distinct slices (stats %+v); want the limit, 3", memo.Len(), memo.Stats)
	}
	for seed := uint64(0); seed < 5; seed++ {
		c, _ := replayMachine(prog, seed, 0, false)
		memo.RunCycles(c, 20, 0)
	}
	if memo.Stats.ReplayedSlices != 3 || memo.Len() != 3 {
		t.Fatalf("full memo: stats %+v, %d entries; want the 3 recorded slices replayed", memo.Stats, memo.Len())
	}
	c, _ := replayMachine(prog, 0, 0, false)
	c.Mem.FlipBit(256, 3)
	memo = &SliceMemo{Limit: 3}
	memo.RunCycles(c, 20, 0)
	if memo.Len() != 0 || memo.Stats.InterpretedSlices != 1 {
		t.Fatalf("a slice with a pending ECC flip was recorded (stats %+v)", memo.Stats)
	}
}

// replayRun is one machine of the slice-replay tests and the result of
// the slice it ran.
type replayRun struct {
	c    *CPU
	bus  *replayBus
	ev   Event
	exc  *Exception
	used uint64
}

// plain interprets the slice.
func (r *replayRun) plain(maxCycles uint64) {
	r.ev, r.exc, r.used = r.c.RunCycles(maxCycles)
}

// through runs the slice through memo with salt 9.
func (r *replayRun) through(memo *SliceMemo, maxCycles uint64) {
	r.ev, r.exc, r.used = memo.RunCycles(r.c, maxCycles, 9)
}

// sameRun fails unless x and y returned the same event, exception and
// cycles and left their machines identical: every register, PC, flag,
// signature, pending ALU mask, cycle and retire count, MMU violation,
// RAM word, the word sum and dirty pages, the corrected errors, the
// pending ECC flips and the port writes in order.
func sameRun(t *testing.T, what string, x, y *replayRun) {
	t.Helper()
	if x.ev != y.ev || x.used != y.used {
		t.Fatalf("%s: event %+v after %d cycles, %+v after %d", what, x.ev, x.used, y.ev, y.used)
	}
	if (x.exc == nil) != (y.exc == nil) || (x.exc != nil && *x.exc != *y.exc) {
		t.Fatalf("%s: exception %v, %v", what, x.exc, y.exc)
	}
	var sx, sy CPUState
	x.c.SnapshotState(&sx)
	y.c.SnapshotState(&sy)
	if sx != sy {
		t.Fatalf("%s: CPU state %+v, %+v", what, sx, sy)
	}
	if x.c.MMU.Violations != y.c.MMU.Violations {
		t.Fatalf("%s: %d MMU violations, %d", what, x.c.MMU.Violations, y.c.MMU.Violations)
	}
	mx, my := x.c.Mem, y.c.Mem
	if !slices.Equal(mx.words, my.words) || mx.wordSum != my.wordSum || !slices.Equal(mx.dirty, my.dirty) {
		t.Fatalf("%s: memory differs (word sums %#x, %#x; dirty %b, %b)", what, mx.wordSum, my.wordSum, mx.dirty, my.dirty)
	}
	if mx.CorrectedErrors != my.CorrectedErrors || !maps.Equal(mx.pendingFlips, my.pendingFlips) {
		t.Fatalf("%s: %d corrected errors with flips %v pending, %d with %v",
			what, mx.CorrectedErrors, mx.pendingFlips, my.CorrectedErrors, my.pendingFlips)
	}
	if !slices.Equal(x.bus.out, y.bus.out) {
		t.Fatalf("%s: port writes %v, %v", what, x.bus.out, y.bus.out)
	}
}

// injectFlips injects up to two ECC flips into a replayMachine memory,
// one per 16-bit half of flips (a zero half injects nothing): bits 0–6
// are the word index, bits 7–11 the bit, bit 12 flips bit+7 as well (a
// multi-bit error) and bit 13 flips the bit a second time, cancelling
// it.
func injectFlips(m *Memory, flips uint32) {
	for _, h := range []uint32{flips & 0xFFFF, flips >> 16} {
		if h == 0 {
			continue
		}
		addr, bit := (h&127)*4, uint(h>>7&31)
		m.FlipBit(addr, bit)
		if h&(1<<12) != 0 {
			m.FlipBit(addr, (bit+7)%32)
		}
		if h&(1<<13) != 0 {
			m.FlipBit(addr, bit)
		}
	}
}

// flipRuleSrc touches four data words in four ways: word 64 is stored
// before it is read, word 65 read then stored, word 66 only read and
// word 67 only stored. Instruction words 0–7 are fetched.
const flipRuleSrc = `
	movi r4, 256
	st r4, [r4+0]
	ld r2, [r4+0]
	ld r3, [r4+4]
	st r3, [r4+4]
	ld r5, [r4+8]
	st r5, [r4+12]
	sys 2
`

// TestSliceReplayFlipRule runs flipRuleSrc's slice once without flips,
// recording it, then twice through the memo with flips pending, and
// each time plainly with the same flips. The first flip-pending slice
// learns the entry's read set and is interpreted; the second replays
// exactly when every flip lies on a word the slice does not read, or is
// single-bit on a word it reads but never stores. The two runs carry
// the same flips unless the case gives the learning run its own: a flip
// that resolves at the first fetch, after which the slice must go on
// logging its reads, or an uncorrectable one, whose trap leaves the
// read set unlearned. Each run must leave the machine as its plain run
// does, corrections and pending flips included, and the second plain
// run corrects the flips the case expects.
func TestSliceReplayFlipRule(t *testing.T) {
	const single, multi, twice = 0, 1 << 12, 1 << 13
	flip := func(word, bit, kind uint32) uint32 { return word | bit<<7 | kind }
	for _, tc := range []struct {
		name      string
		learn     uint32 // the learning run's flips; 0 means those of the second
		flips     uint32
		replay    bool
		corrected uint64
	}{
		{"single-bit, read only", 0, flip(66, 3, single), true, 1},
		{"single-bit, fetched", 0, flip(2, 30, single), true, 1},
		{"single-bit, unread", 0, flip(100, 3, single), true, 0},
		{"multi-bit, unread", 0, flip(100, 3, multi), true, 0},
		{"single-bit, stored only", 0, flip(67, 3, single), true, 0},
		{"multi-bit, stored only", 0, flip(67, 3, multi), true, 0},
		{"zero mask, read only", 0, flip(66, 3, twice), true, 0},
		{"zero mask, read and stored", 0, flip(65, 3, twice), true, 0},
		{"single-bit read and multi-bit unread", 0, flip(66, 3, single) | flip(100, 9, multi)<<16, true, 1},
		{"learned past the first fetch", flip(0, 4, single), flip(66, 3, single), true, 1},
		{"multi-bit, read", 0, flip(66, 3, multi), false, 0},
		{"multi-bit, read, after learning", flip(66, 3, single), flip(66, 3, multi), false, 0},
		{"single-bit, stored before a read", 0, flip(64, 3, single), false, 0},
		{"single-bit, read then stored", 0, flip(65, 3, single), false, 1},
		{"multi-bit fetched and single-bit unread", 0, flip(5, 0, multi) | flip(100, 9, single)<<16, false, 0},
		{"learning trapped, learned again", flip(66, 3, multi), flip(66, 3, single), false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := programBytes(flipRuleSrc)
			machine := func(flips uint32) *replayRun {
				c, bus := replayMachine(prog, 7, 0, false)
				injectFlips(c.Mem, flips)
				return &replayRun{c: c, bus: bus}
			}
			learnFlips := tc.learn
			if learnFlips == 0 {
				learnFlips = tc.flips
			}
			memo := &SliceMemo{Limit: 4}
			machine(0).through(memo, 100)
			for i, flips := range []uint32{learnFlips, tc.flips} {
				ref, run := machine(flips), machine(flips)
				ref.plain(100)
				run.through(memo, 100)
				sameRun(t, []string{"learning run", "second run"}[i], run, ref)
				if got := ref.c.Mem.CorrectedErrors; i == 1 && got != tc.corrected {
					t.Errorf("%d corrected errors, want %d", got, tc.corrected)
				}
			}
			want := SliceStats{InterpretedSlices: 3, ReplayedSlices: 0}
			if tc.replay {
				want = SliceStats{InterpretedSlices: 2, ReplayedSlices: 1, FlipReplayedSlices: 1}
			}
			want.InterpretedCycles, want.ReplayedCycles = memo.Stats.InterpretedCycles, memo.Stats.ReplayedCycles
			if memo.Stats != want || memo.Len() != 1 {
				t.Errorf("stats %+v with %d entries; want %+v", memo.Stats, memo.Len(), want)
			}
		})
	}
}

// TestSliceEntrySize pins a recorded slice's footprint: the read set is
// an offset and a length into the memo's arena, held in what would
// otherwise be padding.
func TestSliceEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(sliceEntry{}); got != 176 {
		t.Errorf("a slice entry is %d bytes, want 176", got)
	}
}
