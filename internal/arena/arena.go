// Package arena carves many small, long-lived slices out of a few large
// allocations: the fork engine's suffix table (internal/fault) and its
// telemetry recorder (internal/obs) keep their entries in arenas, so
// recording allocates per chunk rather than per entry.
package arena

// Arena hands out slices of T carved from chunks of Chunk elements (or
// of exactly the request, when that is larger or Chunk is 0). A chunk is
// never appended past its capacity, so its backing array never moves and
// every slice or pointer into it stays valid; a full chunk is replaced by
// a fresh one.
type Arena[T any] struct {
	Chunk int
	free  []T // the current chunk: [0, len) handed out, [len, cap) free
}

// Reserve makes room for n more elements in the current chunk and
// returns where they start, for Since.
func (a *Arena[T]) Reserve(n int) int {
	if cap(a.free)-len(a.free) < n {
		a.free = make([]T, 0, max(n, a.Chunk))
	}
	return len(a.free)
}

// Add appends v — in the room Reserve made, when v belongs to a run of
// adds that Since returns — and returns its address.
//
//nlft:noalloc
func (a *Arena[T]) Add(v T) *T {
	a.Reserve(1)
	a.free = append(a.free, v)
	return &a.free[len(a.free)-1]
}

// Since returns the elements added since Reserve returned off (nil when
// none).
//
//nlft:noalloc
func (a *Arena[T]) Since(off int) []T {
	if len(a.free) == off {
		return nil
	}
	return a.free[off:len(a.free):len(a.free)]
}

// CopyOf returns a copy of src carved from the arena (nil when src is
// empty).
func (a *Arena[T]) CopyOf(src []T) []T {
	off := a.Reserve(len(src))
	a.free = append(a.free, src...)
	return a.Since(off)
}
