package obs

// Suffix telemetry: what one recorded run's collector gained after each
// of a sequence of boundaries, composed onto another run that reached
// the same state there. The fork engine (internal/fault) records its
// golden run this way, and a trial that reconverges to the golden state
// at a boundary takes the golden run's remaining telemetry instead of
// simulating it.
//
// Counters, histogram buckets, counts and sums add, so the suffix's
// share of them is the horizon registry minus the boundary's snapshot.
// Histogram minima and maxima and gauge maxima do not subtract: the
// recording run tracks them per interval in its single pass — at each
// boundary the real extremes are saved and reset, the interval tracks
// its own, and the real values are restored before the next snapshot —
// and End folds the intervals backwards into per-boundary suffix
// extremes. Event streams append the recorded tail, subject to the
// receiving collector's cap exactly as Emit would be.

import (
	"math"
	"slices"
)

// Suffixes is one run's telemetry after each of its boundaries. Record
// it with Close, Snapshot, Open at every boundary and End at the run's
// end; a nil *Suffixes records and composes nothing.
type Suffixes struct {
	hists  []histTrack
	gauges []gaugeTrack
	open   bool
	closed int // intervals closed so far
	hint   int // expected interval count, the capacity of each track

	// Set by End: the horizon state, and its counter series in key order
	// with their values.
	horizon  *CollectorState
	counters []Key
	values   []uint64
}

// histTrack is one histogram series' interval bookkeeping: the real
// count and extremes when the open interval began, and the extremes of
// each interval (per boundary after End).
type histTrack struct {
	key      Key
	h        *Histogram
	count    uint64
	min, max uint64
	ext      []histExt
}

// histExt is the sample extremes of an interval or suffix; n is its
// sample count (the extremes are meaningless when n is 0).
type histExt struct{ min, max, n uint64 }

// widen folds b's samples into a.
func (a histExt) widen(b histExt) histExt {
	switch {
	case b.n == 0:
		return a
	case a.n == 0:
		return b
	}
	return histExt{min: min(a.min, b.min), max: max(a.max, b.max), n: a.n + b.n}
}

// gaugeTrack is one gauge series' interval bookkeeping: its real value
// when the open interval began, and the maximum each interval set (per
// boundary after End).
type gaugeTrack struct {
	key  Key
	g    *Gauge
	real Gauge
	ext  []Gauge
}

// NewSuffixes returns an empty recorder for a run with about intervals
// boundaries; each tracked series preallocates that many slots, so a
// boundary never allocates.
func NewSuffixes(intervals int) *Suffixes { return &Suffixes{hint: intervals + 1} }

// track adds the histogram and gauge series c has gained since the last
// call. A series created during the open interval holds only samples
// from it, so it starts with empty earlier intervals and no real prior
// value.
func (x *Suffixes) track(c *Collector) {
	r := c.reg
	if len(r.hists) == len(x.hists) && len(r.gauges) == len(x.gauges) {
		return
	}
	w := r.Wire()
	for _, hw := range w.Hists {
		k := hw.Key.Key()
		if !slices.ContainsFunc(x.hists, func(t histTrack) bool { return t.key == k }) {
			x.hists = append(x.hists, histTrack{key: k, h: r.hists[k],
				ext: make([]histExt, x.closed, max(x.hint, x.closed+1))})
		}
	}
	for _, gw := range w.Gauges {
		k := gw.Key.Key()
		if !slices.ContainsFunc(x.gauges, func(t gaugeTrack) bool { return t.key == k }) {
			x.gauges = append(x.gauges, gaugeTrack{key: k, g: r.gauges[k],
				ext: make([]Gauge, x.closed, max(x.hint, x.closed+1))})
		}
	}
}

// Open starts the interval after a boundary: it saves c's real
// histogram and gauge extremes and resets them, so the interval tracks
// its own. Call it after the boundary's Snapshot.
func (x *Suffixes) Open(c *Collector) {
	if x == nil || c == nil {
		return
	}
	x.track(c)
	for i := range x.hists {
		t := &x.hists[i]
		t.count, t.min, t.max = t.h.count, t.h.min, t.h.max
		t.h.min, t.h.max = math.MaxUint64, 0
	}
	for i := range x.gauges {
		t := &x.gauges[i]
		t.real = *t.g
		*t.g = Gauge{}
	}
	x.open = true
}

// Close ends the open interval at a boundary: it records the interval's
// extremes and restores c's real ones. Call it before the boundary's
// Snapshot; it does nothing before the first Open.
func (x *Suffixes) Close(c *Collector) {
	if x == nil || c == nil || !x.open {
		return
	}
	x.track(c)
	for i := range x.hists {
		t := &x.hists[i]
		e := histExt{n: t.h.count - t.count}
		if e.n > 0 {
			e.min, e.max = t.h.min, t.h.max
		}
		t.ext = append(t.ext, e)
		all := histExt{min: t.min, max: t.max, n: t.count}.widen(e)
		t.h.min, t.h.max = all.min, all.max
	}
	for i := range x.gauges {
		t := &x.gauges[i]
		t.ext = append(t.ext, *t.g)
		if t.g.set {
			t.real.SetMax(t.g.v)
		}
		*t.g = t.real
	}
	x.open = false
	x.closed++
}

// End closes the last interval at the run's end, folds the interval
// extremes into suffix extremes (entry b covers everything after
// boundary b), and keeps c's horizon state.
func (x *Suffixes) End(c *Collector) {
	if x == nil || c == nil {
		return
	}
	x.Close(c)
	for i := range x.hists {
		ext := x.hists[i].ext
		for b := len(ext) - 2; b >= 0; b-- {
			ext[b] = ext[b].widen(ext[b+1])
		}
	}
	for i := range x.gauges {
		ext := x.gauges[i].ext
		for b := len(ext) - 2; b >= 0; b-- {
			if ext[b+1].set {
				ext[b].SetMax(ext[b+1].v)
			}
		}
	}
	x.horizon = NewCollectorState()
	c.Snapshot(x.horizon)
	for _, cw := range c.reg.Wire().Counters {
		x.counters = append(x.counters, cw.Key.Key())
		x.values = append(x.values, cw.Value)
	}
}

// ShiftGauge adds d to every suffix maximum recorded for the gauges
// named name — for a quantity the recording run measured with a
// constant offset the composing runs do not have.
func (x *Suffixes) ShiftGauge(name string, d float64) {
	if x == nil {
		return
	}
	for i := range x.gauges {
		if x.gauges[i].key.Name != name {
			continue
		}
		for b := range x.gauges[i].ext {
			if e := &x.gauges[i].ext[b]; e.set {
				e.v += d
			}
		}
	}
}

// Events is the recorded run's event stream at its end (nil when it
// kept none).
func (x *Suffixes) Events() []Event {
	if x == nil || x.horizon == nil {
		return nil
	}
	return x.horizon.events
}

// emitted is the number of events a stream state has seen: retained
// plus dropped.
func (st *CollectorState) emitted() uint64 { return uint64(len(st.events)) + st.dropped }

// Fits reports whether the recorded event tail after a boundary whose
// snapshot is at holds every event c would retain of it. The recorded
// stream keeps the first events of the suffix; it falls short only when
// the recording run's cap dropped some of them and c has more room
// left than the recording had at the boundary.
//
//nlft:noalloc
func (x *Suffixes) Fits(c *Collector, at *CollectorState) bool {
	if x == nil || c == nil || c.s.disabled {
		return true
	}
	kept := uint64(len(x.horizon.events) - len(at.events))
	need := x.horizon.emitted() - at.emitted()
	if c.s.limit > 0 {
		need = min(need, uint64(max(c.s.limit-len(c.s.events), 0)))
	}
	return need <= kept
}

// Compose adds to c the telemetry the recorded run gained after
// boundary b, whose snapshot is at: counters, histogram buckets, counts
// and sums by their horizon deltas, histogram and gauge extremes by the
// suffix extremes, and the event tail (which Fits must accept) without
// counting it again, since the deltas already hold its events.* counts.
// A series the suffix did not touch is left alone, so c gains no series
// its own run lacks; one the suffix created is created.
//
//nlft:noalloc
func (x *Suffixes) Compose(c *Collector, b int, at *CollectorState) {
	if x == nil || c == nil {
		return
	}
	r, hz := c.reg, x.horizon
	for i, k := range x.counters {
		v := x.values[i]
		if a, ok := at.counters[k]; !ok || a != v {
			r.Counter(k).Add(v - a)
		}
	}
	for i := range x.hists {
		t := &x.hists[i]
		a, ok := at.hists[t.key]
		e := t.ext[b]
		if ok && e.n == 0 {
			continue
		}
		h := r.Histogram(t.key)
		all := histExt{min: h.min, max: h.max, n: h.count}.widen(e)
		h.min, h.max = all.min, all.max
		v := hz.hists[t.key]
		for j := range h.buckets {
			h.buckets[j] += v.buckets[j] - a.buckets[j]
		}
		h.count += v.count - a.count
		h.sum += v.sum - a.sum
	}
	for i := range x.gauges {
		t := &x.gauges[i]
		_, ok := at.gauges[t.key]
		e := t.ext[b]
		if ok && !e.set {
			continue
		}
		g := r.Gauge(t.key)
		if e.set {
			g.SetMax(e.v)
		}
	}
	c.AppendTail(hz.events[len(at.events):], hz.emitted()-at.emitted()-uint64(len(hz.events)-len(at.events)))
}

// AppendTail appends a recorded event tail to c's stream without
// counting it in the registry, subject to the cap exactly as Emit
// would be. unretained is the number of further tail events the
// recording itself dropped; they count as dropped, as do the tail
// events the cap drops.
//
//nlft:noalloc
func (c *Collector) AppendTail(tail []Event, unretained uint64) {
	if c == nil || c.s.disabled {
		return
	}
	keep := len(tail)
	if c.s.limit > 0 {
		keep = min(keep, max(c.s.limit-len(c.s.events), 0))
	}
	c.s.events = append(c.s.events, tail[:keep]...)
	c.s.dropped += uint64(len(tail)-keep) + unretained
}

// KeepsEvents reports whether c retains events: false for a nil or
// metrics-only collector, whose emitted events only count.
func (c *Collector) KeepsEvents() bool { return c != nil && !c.s.disabled }
