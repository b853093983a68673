// Package sctest is the snapshotcover fixture: Snapshot/Restore pairs
// with covered, missed, skipped and allow-suppressed fields, a
// delegating sub-component pair, a one-sided pair, a state-type
// mismatch, orphaned skips, and shapes outside the contract.
package sctest

// inner/innerState: a fully covered SnapshotState/RestoreState pair the
// outer gadget delegates to.
type inner struct {
	regs [4]uint32
}

type innerState struct {
	regs [4]uint32
}

func (in *inner) SnapshotState(into *innerState) {
	into.regs = in.regs
}

func (in *inner) RestoreState(from *innerState) {
	in.regs = from.regs
}

type gadget struct {
	a          int
	b          []byte
	sub        inner
	missedSnap int    // want "field gadget.missedSnap is not captured by Snapshot"
	missedRest int    // want "field gadget.missedRest is not restored by Restore"
	legacy     int    //nlft:allow snapshotcover legacy scratch field scheduled for removal
	cfg        string //nlft:snapshot-skip immutable configuration, set at construction
}

type gadgetState struct {
	a     int
	b     []byte
	sub   innerState
	sOnly int // want "state field gadgetState.sOnly is never read back by Restore"
	rOnly int // want "state field gadgetState.rOnly is never written by Snapshot"
	dead  int // want "never written by Snapshot" "never read back by Restore"
	meta  int //nlft:snapshot-skip capture timestamp, diagnostic only
}

func (g *gadget) Snapshot(into *gadgetState) {
	into.a = g.a
	into.b = append(into.b[:0], g.b...)
	g.sub.SnapshotState(&into.sub)
	into.sOnly = g.missedRest
	into.meta = 7
}

func (g *gadget) Restore(from *gadgetState) {
	g.a = from.a
	g.b = append(g.b[:0], from.b...)
	g.sub.RestoreState(&from.sub)
	g.missedSnap = from.rOnly
}

// half captures but cannot rewind: no Restore at all.
type half struct {
	n int
}

type halfState struct{ n int }

func (h *half) Snapshot(into *halfState) { // want "half has no mirror Restore"
	into.n = h.n
}

// odd's two directions disagree on the state type.
type odd struct{ n int }

type oddA struct{ n int }

type oddB struct{ n int }

func (o *odd) Snapshot(into *oddA) { into.n = o.n }

func (o *odd) Restore(from *oddB) { o.n = from.n } // want "must share one state type"

// valuesnap's value-returning pair (cpu.CPU's cycle-window shape) is
// architectural and outside the capture-pair contract: no findings.
type valuesnap struct{ n int }

type valueState struct{ n int }

func (v valuesnap) Snapshot() valueState { return valueState{n: v.n} }

func (v *valuesnap) Restore(s valueState) { v.n = s.n }

// extra: trailing parameters beyond the state pointer are allowed
// (fault.Instance.Snapshot threads an *obs.Collector through).
type extra struct{ n int }

type extraState struct{ n int }

func (e *extra) Snapshot(into *extraState, scratch []byte) {
	into.n = e.n
	_ = scratch
}

func (e *extra) Restore(from *extraState, scratch []byte) {
	e.n = from.n
	_ = scratch
}

// stale lost its capture pair, so its skip exempts nothing.
type stale struct {
	n int //nlft:snapshot-skip immutable configuration // want "orphaned //nlft:snapshot-skip: stale is neither the receiver nor the state struct"
}

//nlft:snapshot-skip a skip on no field at all // want "orphaned //nlft:snapshot-skip: it annotates no struct field"

// plain has no capture pair: nothing here is checked.
type plain struct {
	x int
}

func use(p *plain) int { return p.x }
