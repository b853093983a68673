// The race detector instruments allocations, so this gate only runs in
// non-race builds (CI runs it as a separate step).

//go:build !race

package cpu

import "testing"

// TestSetRegionsZeroAlloc gates the MMU's per-slice path: the kernel
// installs the running task's regions before every slice, so once the
// MMU holds a region set as large, installing one allocates nothing.
func TestSetRegionsZeroAlloc(t *testing.T) {
	mmu := NewMMU()
	code := []Region{{Start: 0, End: 0x100, Perms: PermRead | PermExec}}
	data := []Region{
		{Start: 0x1000, End: 0x1100, Perms: PermRead | PermExec},
		{Start: 0x2000, End: 0x2040, Perms: PermRead | PermWrite},
		{Start: IOBase + 4, End: IOBase + 8, Perms: PermWrite},
	}
	mmu.SetRegions(data)
	if got := testing.AllocsPerRun(100, func() {
		mmu.SetRegions(code)
		mmu.SetRegions(data)
	}); got != 0 {
		t.Errorf("SetRegions allocates %v per two installs, want 0", got)
	}
	if mmu.Check(0x2000, PermWrite) != nil || mmu.Check(0x80, PermRead) == nil {
		t.Error("the regions installed last are not the ones checked")
	}
}

// TestFlipReplayZeroAlloc gates the slice memo's flip-pending path
// warm: once an entry's read set is learned, a slice that starts with a
// correctable flip on a word it reads replays the entry and applies the
// correction without allocating.
func TestFlipReplayZeroAlloc(t *testing.T) {
	c, _ := replayMachine(programBytes(flipRuleSrc), 7, 0, false)
	memo := &SliceMemo{Limit: 4}
	var cpu0, cpu1 CPUState
	var mem0, mem1 MemoryState
	c.SnapshotState(&cpu0)
	c.Mem.Snapshot(&mem0)
	memo.RunCycles(c, 100, 9) // records
	c.RestoreState(&cpu0)
	c.Mem.Restore(&mem0)
	c.Mem.FlipBit(66*4, 3)
	c.SnapshotState(&cpu1)
	c.Mem.Snapshot(&mem1)
	memo.RunCycles(c, 100, 9) // learns the read set
	before := memo.Stats.FlipReplayedSlices
	if got := testing.AllocsPerRun(100, func() {
		c.RestoreState(&cpu1)
		c.Mem.Restore(&mem1)
		memo.RunCycles(c, 100, 9)
	}); got != 0 {
		t.Errorf("a warm flip-pending replay allocates %v times, want 0", got)
	}
	if memo.Stats.FlipReplayedSlices-before < 100 || c.Mem.CorrectedErrors != 1 {
		t.Errorf("%d flip-pending replays, %d corrected errors; want every run replayed and its flip corrected",
			memo.Stats.FlipReplayedSlices-before, c.Mem.CorrectedErrors)
	}
}
