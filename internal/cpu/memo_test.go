package cpu

import (
	"errors"
	"testing"
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
