package des

// SimState is preallocated scratch for Simulator.Snapshot/Restore. A
// checkpoint/fork campaign keeps one per checkpoint per worker; the
// backing slices reach steady-state capacity after the first capture and
// are reused thereafter.
//
// A SimState is only meaningful for the Simulator instance it was
// captured from: pooled slots hold callback closures bound to that
// instance's model objects, so restoring it into a different simulator
// would fire callbacks against the wrong object graph. The fork engine
// in internal/fault therefore pairs each worker with exactly one
// instance and restores in place.
type SimState struct {
	now     Time
	pool    []eventSlot
	free    []int32
	heap    []int32
	lazy    int
	seq     uint64
	fired   uint64
	stopped bool
}

// Now reports the simulated instant at which the state was captured.
func (st *SimState) Now() Time { return st.now }

// Snapshot copies the simulator's complete scheduling state — clock,
// pooled event slots (including their generation counters and bound
// callbacks), free list, heap order, tombstone count, and sequence
// counters — into st. The reusable NextEventAfter walk stack and the
// attached event observer are scratch/wiring, not state, and are not
// captured.
//
//nlft:noalloc
func (s *Simulator) Snapshot(into *SimState) {
	into.now = s.now
	into.pool = append(into.pool[:0], s.pool...)
	into.free = append(into.free[:0], s.free...)
	into.heap = append(into.heap[:0], s.heap...)
	into.lazy = s.lazy
	into.seq = s.seq
	into.fired = s.fired
	into.stopped = s.stopped
}

// Restore rewinds the simulator to a state previously captured from the
// same instance with Snapshot. Event handles issued before the capture
// become valid again (slot generations rewind with the pool); handles
// issued after the capture must be discarded by the caller, which the
// fork engine guarantees by restoring every handle-holding model object
// from the same checkpoint.
//
//nlft:noalloc
func (s *Simulator) Restore(from *SimState) {
	s.now = from.now
	s.pool = append(s.pool[:0], from.pool...)
	s.free = append(s.free[:0], from.free...)
	s.heap = append(s.heap[:0], from.heap...)
	s.lazy = from.lazy
	s.seq = from.seq
	s.fired = from.fired
	s.stopped = from.stopped
}

// PendingDigest folds the (instant, priority) pairs of all live queued
// events into an order-insensitive digest, and reports how many live
// events were folded. An event matching skip is excluded (pass the zero
// Event to exclude nothing): the fork engine's golden capture carries a
// placeholder injection event that a forked trial replaces with the real
// one, so the two sides must be compared net of it. The fold is a sum of
// avalanche-mixed terms, so heap layout and insertion order do not
// affect the digest — only the multiset of pending (at, prio) pairs
// does.
//
//nlft:noalloc
func (s *Simulator) PendingDigest(skip Event) (digest uint64, count int) {
	for _, idx := range s.heap {
		sl := &s.pool[idx]
		if sl.canceled {
			continue
		}
		if skip.gen != 0 && idx == skip.slot && sl.gen == skip.gen {
			continue
		}
		digest += mix64(uint64(sl.at)*0x9e3779b97f4a7c15 ^ uint64(uint32(sl.prio)))
		count++
	}
	return digest, count
}

// ScheduledAt reports the instant a still-pending event will fire, and
// whether the handle is live at all (scheduled and not canceled). It
// lets state digests fold an event's position on the timeline without
// the caller bookkeeping it separately.
//
//nlft:noalloc
func (s *Simulator) ScheduledAt(e Event) (Time, bool) {
	if !s.Scheduled(e) {
		return 0, false
	}
	return s.pool[e.slot].at, true
}
