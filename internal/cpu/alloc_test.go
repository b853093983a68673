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
