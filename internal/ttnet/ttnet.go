// Package ttnet simulates a FlexRay-like time-triggered communication
// network (§2.1): a cyclic schedule with a static TDMA segment whose
// slots are statically owned by nodes, followed by a dynamic segment for
// event-triggered messages arbitrated by priority. Frames carry CRCs so
// receivers identify corrupted transmissions (fail-silence at the
// network level), and a membership service lets every node observe which
// peers transmitted in each cycle — the hook the paper's system level
// uses to detect node omission and fail-silent failures and to drive
// restart and reintegration.
package ttnet

import (
	"fmt"
	"hash/crc32"

	"repro/internal/des"
)

// NodeID identifies a network endpoint.
type NodeID string

// Frame is one transmission on the bus.
type Frame struct {
	// Cycle and Slot locate the transmission in the schedule (Slot is -1
	// for dynamic-segment frames).
	Cycle uint64
	Slot  int
	// Sender is the transmitting node.
	Sender NodeID
	// Payload is the application data.
	Payload []uint32
	// Valid reports whether the CRC checked out at the receiver.
	Valid bool
}

// payloadCRC computes the frame checksum.
func payloadCRC(sender NodeID, payload []uint32) uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte(sender))
	var buf [4]byte
	for _, w := range payload {
		buf[0] = byte(w)
		buf[1] = byte(w >> 8)
		buf[2] = byte(w >> 16)
		buf[3] = byte(w >> 24)
		h.Write(buf[:])
	}
	return h.Sum32()
}

// Config describes the communication cycle.
type Config struct {
	// SlotLen is the duration of one static slot. Default 1 ms.
	SlotLen des.Time
	// StaticSlots is the number of static slots per cycle; each slot has
	// exactly one owner.
	StaticSlots int
	// DynamicLen is the duration of the dynamic segment. Default 0 (no
	// dynamic segment).
	DynamicLen des.Time
	// DynMiniSlot is the transmission time consumed by one dynamic
	// message. Default 100 µs.
	DynMiniSlot des.Time
}

func (c *Config) applyDefaults() error {
	if c.SlotLen == 0 {
		c.SlotLen = des.Millisecond
	}
	if c.SlotLen < 0 || c.DynamicLen < 0 {
		return fmt.Errorf("ttnet: negative segment length")
	}
	if c.StaticSlots < 1 {
		return fmt.Errorf("ttnet: %d static slots", c.StaticSlots)
	}
	if c.DynMiniSlot == 0 {
		c.DynMiniSlot = 100 * des.Microsecond
	}
	return nil
}

// CycleLen is the total communication cycle duration.
func (c Config) CycleLen() des.Time {
	return des.Time(c.StaticSlots)*c.SlotLen + c.DynamicLen
}

// Endpoint is a node's attachment to the bus.
type Endpoint struct {
	bus *Bus
	id  NodeID
	// provide supplies the payload for an owned static slot; returning
	// nil skips the transmission (an omission, visible to membership).
	provide func(cycle uint64, slot int) []uint32
	// onFrame receives every frame on the bus (including invalid ones,
	// flagged, so receivers can count corrupted transmissions).
	onFrame func(f Frame)
	// onCycle is called at each cycle end with the membership view. The
	// map is reused by the bus and only valid during the call.
	onCycle func(cycle uint64, transmitted map[NodeID]bool)
	silent  bool
	// dynWhileSilent permits dynamic-segment transmission while the
	// static slots stay silent: a reintegrating node's protocol traffic
	// (state-recovery requests) travels in the event-triggered part
	// before the node is readmitted to the time-triggered part.
	dynWhileSilent bool
	// dynQueue holds pending event-triggered messages by priority.
	dynQueue []dynMsg
}

type dynMsg struct {
	prio    int
	payload []uint32
	seq     uint64
}

// Silence makes the endpoint stop transmitting (fail-silent node); it
// keeps receiving so it can resynchronize.
func (e *Endpoint) Silence() { e.silent = true }

// Resume lets a restarted endpoint transmit again (reintegration).
func (e *Endpoint) Resume() { e.silent = false }

// Silenced reports whether the endpoint is currently silent.
func (e *Endpoint) Silenced() bool { return e.silent }

// SetDynamicWhileSilent controls whether the endpoint may still send
// event-triggered messages while statically silent (reintegration).
func (e *Endpoint) SetDynamicWhileSilent(ok bool) { e.dynWhileSilent = ok }

// SendDynamic queues an event-triggered message (higher prio first, FIFO
// within a priority). It is delivered in a following dynamic segment.
func (e *Endpoint) SendDynamic(prio int, payload []uint32) {
	cp := make([]uint32, len(payload))
	copy(cp, payload)
	e.dynQueue = append(e.dynQueue, dynMsg{prio: prio, payload: cp, seq: e.bus.dynSeq})
	e.bus.dynSeq++
}

// Stats counts bus-level events.
type Stats struct {
	FramesDelivered  uint64
	FramesCorrupted  uint64
	SlotsSkipped     uint64
	DynamicDelivered uint64
	DynamicDropped   uint64
	CyclesCompleted  uint64
}

// Bus is the shared medium plus the global schedule.
type Bus struct {
	sim       *des.Simulator
	cfg       Config
	owners    []NodeID // slot -> owner
	endpoints map[NodeID]*Endpoint
	order     []NodeID
	cycle     uint64
	// transmitted tracks senders seen in the current cycle.
	transmitted map[NodeID]bool
	// corruptNext marks slots whose next transmission is corrupted
	// (fault injection).
	corruptNext map[int]bool
	stats       Stats
	started     bool
	dynSeq      uint64

	// Bound schedule callbacks, created once at Start so the cyclic
	// schedule re-arms its events without allocating a closure per slot
	// per cycle: slotFns[i] runs static slot i, deliverFns[i] delivers
	// the frame staged in pendingFrame[i].
	slotFns      []func()
	deliverFns   []func()
	runDynamicFn func()
	endCycleFn   func()
	deliverDynFn func()
	// pendingFrame stages each slot's frame between transmission and
	// end-of-slot delivery.
	pendingFrame []Frame
	// dynScratch and dynPend are the dynamic segment's reused buffers:
	// dynScratch collects and orders the cycle's messages, dynPend is the
	// FIFO of frames awaiting delivery (deliverDynFn pops dynHead).
	dynScratch []dynEntry
	dynPend    []Frame
	dynHead    int
	// viewScratch is the reused membership view handed to onCycle; the
	// callback contract is that the map is only valid during the call.
	viewScratch map[NodeID]bool
}

// dynEntry pairs a queued dynamic message with its sender for
// arbitration.
type dynEntry struct {
	msg  dynMsg
	from NodeID
}

// NewBus builds a bus on the simulator.
func NewBus(sim *des.Simulator, cfg Config) (*Bus, error) {
	if sim == nil {
		return nil, fmt.Errorf("ttnet: nil simulator")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &Bus{
		sim:         sim,
		cfg:         cfg,
		owners:      make([]NodeID, cfg.StaticSlots),
		endpoints:   make(map[NodeID]*Endpoint),
		transmitted: make(map[NodeID]bool),
		corruptNext: make(map[int]bool),
	}, nil
}

// Attach registers an endpoint. provide may be nil for receive-only
// nodes; onFrame and onCycle may be nil.
func (b *Bus) Attach(id NodeID, provide func(cycle uint64, slot int) []uint32,
	onFrame func(Frame), onCycle func(uint64, map[NodeID]bool)) (*Endpoint, error) {
	if b.started {
		return nil, fmt.Errorf("ttnet: attach after start")
	}
	if id == "" {
		return nil, fmt.Errorf("ttnet: empty node id")
	}
	if _, dup := b.endpoints[id]; dup {
		return nil, fmt.Errorf("ttnet: duplicate node %q", id)
	}
	e := &Endpoint{bus: b, id: id, provide: provide, onFrame: onFrame, onCycle: onCycle}
	b.endpoints[id] = e
	b.order = append(b.order, id)
	return e, nil
}

// AssignSlot gives a static slot to a node.
func (b *Bus) AssignSlot(slot int, owner NodeID) error {
	if b.started {
		return fmt.Errorf("ttnet: assign after start")
	}
	if slot < 0 || slot >= b.cfg.StaticSlots {
		return fmt.Errorf("ttnet: slot %d out of range", slot)
	}
	if _, ok := b.endpoints[owner]; !ok {
		return fmt.Errorf("ttnet: unknown owner %q", owner)
	}
	if b.owners[slot] != "" {
		return fmt.Errorf("ttnet: slot %d already owned by %q", slot, b.owners[slot])
	}
	b.owners[slot] = owner
	return nil
}

// CorruptNextFrame arranges for the next transmission in the slot to
// arrive with a bad CRC (transient bus fault).
func (b *Bus) CorruptNextFrame(slot int) { b.corruptNext[slot] = true }

// Stats returns a copy of the counters.
func (b *Bus) Stats() Stats { return b.stats }

// Start begins the cyclic schedule. Every slot must be owned.
func (b *Bus) Start() error {
	if b.started {
		return fmt.Errorf("ttnet: already started")
	}
	for slot, owner := range b.owners {
		if owner == "" {
			return fmt.Errorf("ttnet: slot %d unowned", slot)
		}
	}
	if len(b.endpoints) == 0 {
		return fmt.Errorf("ttnet: no endpoints")
	}
	b.started = true
	b.slotFns = make([]func(), b.cfg.StaticSlots)
	b.deliverFns = make([]func(), b.cfg.StaticSlots)
	b.pendingFrame = make([]Frame, b.cfg.StaticSlots)
	for slot := range b.slotFns {
		slot := slot
		b.slotFns[slot] = func() { b.runSlot(slot) }
		b.deliverFns[slot] = func() { b.deliverSlot(slot) }
	}
	b.runDynamicFn = b.runDynamic
	b.endCycleFn = b.endCycle
	b.deliverDynFn = b.deliverNextDynamic
	b.viewScratch = make(map[NodeID]bool, len(b.endpoints))
	b.scheduleSlot(0)
	return nil
}

// scheduleSlot arranges the transmission at the start of a static slot.
//
//nlft:noalloc
func (b *Bus) scheduleSlot(slot int) {
	b.sim.Schedule(b.sim.Now(), des.PrioNetwork, b.slotFns[slot])
}

// runSlot performs one static slot: the owner transmits (or not), and
// the frame is delivered to every endpoint at the end of the slot.
//
//nlft:noalloc
func (b *Bus) runSlot(slot int) {
	owner := b.owners[slot]
	e := b.endpoints[owner]
	var payload []uint32
	if !e.silent && e.provide != nil {
		payload = e.provide(b.cycle, slot)
	}
	slotEnd := b.sim.Now() + b.cfg.SlotLen
	if payload == nil {
		b.stats.SlotsSkipped++
	} else {
		corrupted := b.corruptNext[slot]
		delete(b.corruptNext, slot)
		// The payload is copied per frame: receivers are allowed to retain
		// delivered frames, so the bus must not reuse their backing.
		b.pendingFrame[slot] = Frame{
			Cycle:  b.cycle,
			Slot:   slot,
			Sender: owner,
			//nlft:allow noalloc per-frame payload copy is the retention contract: receivers may keep delivered frames, so the bus must not reuse their backing
			Payload: append([]uint32(nil), payload...),
			Valid:   !corrupted,
		}
		b.sim.Schedule(slotEnd, des.PrioNetwork, b.deliverFns[slot])
	}
	// Next slot or dynamic segment.
	if slot+1 < b.cfg.StaticSlots {
		b.sim.Schedule(slotEnd, des.PrioNetwork, b.slotFns[slot+1])
	} else {
		b.sim.Schedule(slotEnd, des.PrioNetwork, b.runDynamicFn)
	}
}

// deliverSlot fans the frame staged for a static slot out to all
// endpoints and updates membership.
//
//nlft:noalloc
func (b *Bus) deliverSlot(slot int) {
	f := b.pendingFrame[slot]
	b.pendingFrame[slot] = Frame{}
	if f.Valid {
		b.stats.FramesDelivered++
		b.transmitted[f.Sender] = true
	} else {
		b.stats.FramesCorrupted++
	}
	for _, id := range b.order {
		e := b.endpoints[id]
		if e.onFrame != nil {
			e.onFrame(f)
		}
	}
}

// runDynamic performs the dynamic segment: pending messages across all
// endpoints are sent in priority order until the segment is full.
//
//nlft:noalloc
func (b *Bus) runDynamic() {
	segEnd := b.sim.Now() + b.cfg.DynamicLen
	if b.cfg.DynamicLen > 0 {
		// Collect pending messages from non-silent endpoints into the
		// reused scratch.
		all := b.dynScratch[:0]
		for _, id := range b.order {
			e := b.endpoints[id]
			if e.silent && !e.dynWhileSilent {
				continue
			}
			for _, m := range e.dynQueue {
				all = append(all, dynEntry{msg: m, from: id})
			}
			e.dynQueue = e.dynQueue[:0]
		}
		sortDynEntries(all)
		if b.dynHead == len(b.dynPend) {
			b.dynPend = b.dynPend[:0]
			b.dynHead = 0
		}
		capacity := int(b.cfg.DynamicLen / b.cfg.DynMiniSlot)
		at := b.sim.Now()
		for i := range all {
			p := &all[i]
			if i >= capacity {
				// No room this cycle: requeue for the next one.
				e := b.endpoints[p.from]
				e.dynQueue = append(e.dynQueue, p.msg)
				b.stats.DynamicDropped++
				continue
			}
			at += b.cfg.DynMiniSlot
			// Deliveries fire in schedule order, so a FIFO of staged frames
			// popped by the single bound callback reproduces the per-frame
			// closure exactly. The payload is the message's own copy (made
			// in SendDynamic), never reused, so receivers may retain it.
			b.dynPend = append(b.dynPend, Frame{
				Cycle:   b.cycle,
				Slot:    -1,
				Sender:  p.from,
				Payload: p.msg.payload,
				Valid:   true,
			})
			b.stats.DynamicDelivered++
			b.sim.Schedule(at, des.PrioNetwork, b.deliverDynFn)
		}
		b.dynScratch = all[:0]
	}
	b.sim.Schedule(segEnd, des.PrioNetwork, b.endCycleFn)
}

// sortDynEntries orders messages by descending priority, FIFO within a
// priority (seq is globally unique, so the order is total). Insertion
// sort: dynamic queues are short and this keeps the arbitration free of
// sort.Slice's per-call closure allocation.
//
//nlft:noalloc
func sortDynEntries(all []dynEntry) {
	for i := 1; i < len(all); i++ {
		e := all[i]
		j := i - 1
		for j >= 0 && (e.msg.prio > all[j].msg.prio ||
			(e.msg.prio == all[j].msg.prio && e.msg.seq < all[j].msg.seq)) {
			all[j+1] = all[j]
			j--
		}
		all[j+1] = e
	}
}

// deliverNextDynamic fans out the next staged dynamic frame (no
// membership effect).
//
//nlft:noalloc
func (b *Bus) deliverNextDynamic() {
	f := b.dynPend[b.dynHead]
	b.dynHead++
	for _, id := range b.order {
		e := b.endpoints[id]
		if e.onFrame != nil {
			e.onFrame(f)
		}
	}
}

// endCycle publishes the membership view and starts the next cycle. The
// view map is reused across cycles; onCycle callbacks must copy it if
// they keep it.
//
//nlft:noalloc
func (b *Bus) endCycle() {
	view := b.viewScratch
	clear(view)
	//nlft:allow nodeterminism key-for-key map copy; iteration order cannot affect the view
	for id, ok := range b.transmitted {
		view[id] = ok
	}
	for _, id := range b.order {
		e := b.endpoints[id]
		if e.onCycle != nil {
			e.onCycle(b.cycle, view)
		}
	}
	b.stats.CyclesCompleted++
	b.cycle++
	clear(b.transmitted)
	b.scheduleSlot(0)
}

// VerifyFrame recomputes and checks a frame CRC (helper for end-to-end
// checks in application code).
func VerifyFrame(f Frame, crc uint32) bool {
	return payloadCRC(f.Sender, f.Payload) == crc
}

// FrameCRC computes the CRC a sender would attach.
func FrameCRC(sender NodeID, payload []uint32) uint32 {
	return payloadCRC(sender, payload)
}
