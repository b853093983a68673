package arena

import "testing"

// TestArenaCarving checks the arena's contract: a reserved run of adds
// comes back contiguous from Since, slices and pointers handed out stay
// valid when a chunk fills, a request larger than Chunk (or any request
// when Chunk is 0) gets a chunk of exactly its size, and an empty copy
// is nil.
func TestArenaCarving(t *testing.T) {
	var a Arena[int]
	exact := a.CopyOf([]int{1, 2, 3})
	if len(exact) != 3 || cap(exact) != 3 {
		t.Fatalf("unchunked copy: len %d cap %d, want 3 and 3", len(exact), cap(exact))
	}
	if a.CopyOf(nil) != nil || a.Since(a.Reserve(0)) != nil {
		t.Error("an empty carve is not nil")
	}
	a.Chunk = 4
	p := a.Add(7)
	off := a.Reserve(3)
	for i := 0; i < 3; i++ {
		a.Add(10 + i)
	}
	run := a.Since(off)
	next := a.CopyOf([]int{20, 21})
	big := a.CopyOf([]int{30, 31, 32, 33, 34, 35})
	if *p != 7 || len(run) != 3 || run[0] != 10 || run[2] != 12 || cap(run) != 3 {
		t.Errorf("reserved run %v (cap %d) or first add %d corrupted", run, cap(run), *p)
	}
	if next[0] != 20 || next[1] != 21 || len(big) != 6 || cap(big) != 6 || exact[2] != 3 {
		t.Errorf("later carves %v, %v or the exact copy %v corrupted", next, big, exact)
	}
	grown := append(run, 99) // capped: appending copies, never overwrites next
	if next[0] != 20 || grown[3] != 99 {
		t.Error("appending to a carved slice overwrote its neighbour")
	}
}
