package obs

// Suffix telemetry: what a recorded run's collector gained after each
// of its marks, cut into one Suffix per mark and composed onto another
// run that reached the same state there. Counters, histogram buckets,
// counts and sums add, so a suffix's share of them is the run's end
// value minus the mark's, kept for the series that moved. Histogram
// minima and maxima and gauge maxima do not subtract: the recorder
// tracks them per interval in the run's single pass — at each mark the
// real extremes are saved and reset, the interval tracks its own, and
// the real values are restored before the next mark's snapshot — and
// End folds the intervals backwards into per-mark suffix extremes.

import (
	"math"
	"slices"

	"repro/internal/arena"
)

// Suffixes records runs on one collector — the fork engine's
// (internal/fault) capture run, whose suffixes are the golden ones and
// whose marks its checkpoints rewind to, and every trial that marks a
// boundary: Mark at each mark, End at the run's end, then Cut for each
// mark; Reset starts the next run. A recorder is bound to one registry,
// the one its last Reset found, and its tracks are that registry's
// series ids: a series keeps its track across runs, and a Suffix names
// series by id in the registry's id space. A nil *Suffixes records and
// composes nothing.
type Suffixes struct {
	reg      *Registry // nil for an events-only collector
	counters []track[Counter, struct{}]
	hists    []track[Histogram, histExt]
	gauges   []track[Gauge, Gauge]
	linked   int      // tracks linked to the run's series
	emits    []uint64 // events emitted, retained or not, at each mark
	kept     []int    // events retained at each mark
	emitted  uint64   // events emitted at the run's end
	tail     []Event  // the events retained after the first mark (End)
	open     bool
	closed   int // intervals closed so far
	hint     int // expected mark count, the capacity of each track
	store    suffixStore
}

// track is one series over a run: the run's series (nil while the run
// lacks it), the first mark the run held it at, its value at each mark,
// and for histograms and gauges its real extremes while an interval is
// open and each interval's extremes (per mark after End).
type track[T, E any] struct {
	s     *T
	since int
	at    []T
	real  E
	ext   []E
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

// NewSuffixes returns a recorder for runs of about marks marks; each
// track preallocates that many slots, so a mark never allocates.
func NewSuffixes(marks int) *Suffixes { return &Suffixes{hint: marks + 1} }

// Reset starts a new run on c: every series is linked again (a rewind
// may have made it absent), and no interval is open. A collector on
// another registry than the last run's rebinds the recorder, which then
// forgets its tracks.
func (x *Suffixes) Reset(c *Collector) {
	if x == nil || c == nil {
		return
	}
	if c.reg != x.reg {
		x.reg, x.counters, x.hists, x.gauges = c.reg, nil, nil, nil
	}
	x.open, x.closed, x.linked, x.emits, x.kept = false, 0, 0, x.emits[:0], x.kept[:0]
	unlink(x.counters)
	unlink(x.hists)
	unlink(x.gauges)
	x.sync()
}

// sync links every series the registry holds that the run has not
// linked yet, adding tracks up to the registry's series count. A series
// linked while an interval is open was created in it: it is held from
// the next mark on, with empty earlier intervals and no real prior
// value. An events-only collector has no series to track.
func (x *Suffixes) sync() {
	r := x.reg
	if r == nil || r.counters.n+r.hists.n+r.gauges.n == x.linked {
		return
	}
	since := x.closed
	if x.open {
		since++
	}
	x.counters = extend(x.counters, len(r.counters.at), x.hint)
	x.hists = extend(x.hists, len(r.hists.at), x.hint)
	x.gauges = extend(x.gauges, len(r.gauges.at), x.hint)
	x.linked += link(x.counters, &r.counters, since, len(x.emits), x.closed) +
		link(x.hists, &r.hists, since, len(x.emits), x.closed) +
		link(x.gauges, &r.gauges, since, len(x.emits), x.closed)
}

// unlink detaches every track from its series.
func unlink[T, E any](ts []track[T, E]) {
	for i := range ts {
		ts[i].s = nil
	}
}

// extend adds a track for every series id below n.
func extend[T, E any](ts []track[T, E], n, hint int) []track[T, E] {
	for len(ts) < n {
		ts = append(ts, track[T, E]{at: make([]T, 0, hint), ext: make([]E, 0, hint)})
	}
	return ts
}

// link links the unlinked tracks whose series s holds, padding their
// marks and closed intervals with zeros, and returns how many it linked.
func link[T, E any](ts []track[T, E], s *series[T], since, marks, closed int) int {
	n := 0
	for id := range ts {
		if t := &ts[id]; t.s == nil && s.held[id] {
			var zero E
			n, t.s, t.since, t.real = n+1, s.at[id], since, zero
			t.at = append(t.at[:0], make([]T, marks)...)
			t.ext = append(t.ext[:0], make([]E, closed)...)
		}
	}
	return n
}

// Mark records c's registry at a mark: it ends the open interval, reads
// every series with the real extremes in place, and opens the interval
// after the mark.
//
//nlft:noalloc
func (x *Suffixes) Mark(c *Collector) {
	if x == nil || c == nil {
		return
	}
	x.close()
	x.emits = append(x.emits, c.emitted())
	x.kept = append(x.kept, len(c.s.events))
	read(x.counters)
	read(x.hists)
	read(x.gauges)
	for i := range x.hists {
		if t := &x.hists[i]; t.s != nil {
			t.real = histExt{min: t.s.min, max: t.s.max, n: t.s.count}
			t.s.min, t.s.max = math.MaxUint64, 0
		}
	}
	for i := range x.gauges {
		if t := &x.gauges[i]; t.s != nil {
			t.real, *t.s = *t.s, Gauge{}
		}
	}
	x.open = true
}

// read appends each linked series' value to its track.
func read[T, E any](ts []track[T, E]) {
	for i := range ts {
		if t := &ts[i]; t.s != nil {
			t.at = append(t.at, *t.s)
		}
	}
}

// close ends the open interval, if any: it records the interval's
// extremes and restores the real ones.
func (x *Suffixes) close() {
	if !x.open {
		return
	}
	x.sync()
	for i := range x.hists {
		if t := &x.hists[i]; t.s != nil {
			e := histExt{n: t.s.count - t.real.n}
			if e.n > 0 {
				e.min, e.max = t.s.min, t.s.max
			}
			t.ext = append(t.ext, e)
			all := t.real.widen(e)
			t.s.min, t.s.max = all.min, all.max
		}
	}
	for i := range x.gauges {
		if t := &x.gauges[i]; t.s != nil {
			if t.ext = append(t.ext, *t.s); t.s.set {
				t.real.SetMax(t.s.v)
			}
			*t.s = t.real
		}
	}
	x.open = false
	x.closed++
}

// End closes the last interval at the run's end, folds the interval
// extremes into suffix extremes — interval i then covers everything
// after mark i — and copies the events c retained after the first mark
// once. It returns the copy, which every mark's tail is a suffix of.
func (x *Suffixes) End(c *Collector) []Event {
	if x == nil || c == nil {
		return nil
	}
	x.close()
	x.emitted = c.emitted()
	x.tail = x.store.events.CopyOf(c.s.events[x.kept[0]:])
	for _, t := range x.hists {
		for b := len(t.ext) - 2; t.s != nil && b >= 0; b-- {
			t.ext[b] = t.ext[b].widen(t.ext[b+1])
		}
	}
	for _, t := range x.gauges {
		for b := len(t.ext) - 2; t.s != nil && b >= 0; b-- {
			if t.ext[b+1].set {
				t.ext[b].SetMax(t.ext[b+1].v)
			}
		}
	}
	return x.tail
}

// ShiftGauge adds d to the run's suffix maxima of the gauges named name
// — for a quantity the run measured with a constant offset the
// composing runs do not have. Call it between End and Cut.
func (x *Suffixes) ShiftGauge(name string, d float64) {
	if x == nil {
		return
	}
	for id, t := range x.gauges {
		for b := range t.ext {
			if e := &t.ext[b]; t.s != nil && e.set && x.reg.ids.gauges.keys[id].Name == name {
				e.v += d
			}
		}
	}
}

// Keep returns a recorder holding x's last run, for Rewind, and gives x
// fresh per-mark storage for its next runs.
func (x *Suffixes) Keep() *Suffixes {
	if x == nil {
		return nil
	}
	k := &Suffixes{reg: x.reg, counters: slices.Clone(x.counters), hists: slices.Clone(x.hists),
		gauges: slices.Clone(x.gauges), emits: x.emits, kept: x.kept, tail: x.tail}
	renew(x.counters)
	renew(x.hists)
	renew(x.gauges)
	x.emits, x.kept = make([]uint64, 0, x.hint), make([]int, 0, x.hint)
	return k
}

// renew gives every track fresh per-mark storage.
func renew[T, E any](ts []track[T, E]) {
	for i := range ts {
		ts[i].at = make([]T, 0, cap(ts[i].at))
	}
}

// Rewind restores c to mark i of x's last run, a run whose first mark
// preceded its first retained event (as a fork engine's capture run
// does at t=0), on the registry x is bound to: every series the run
// held there takes its value then, in place, so pointers components
// cached at build time stay valid; every other series becomes absent;
// and the event stream is cut back to the mark. An events-only
// collector rewinds only its events.
//
//nlft:noalloc
func (x *Suffixes) Rewind(c *Collector, i int) {
	if x == nil || c == nil {
		return
	}
	if r := c.reg; r != nil {
		rewind(&r.counters, x.counters, i)
		rewind(&r.hists, x.hists, i)
		rewind(&r.gauges, x.gauges, i)
	}
	c.s.events = append(c.s.events[:0], x.tail[:x.kept[i]]...)
	c.s.dropped = x.emits[i] - uint64(x.kept[i])
}

// rewind restores s to mark i of the run ts tracked.
func rewind[T, E any](s *series[T], ts []track[T, E], i int) {
	clear(s.held)
	s.n = 0
	for id := range ts {
		if t := &ts[id]; t.s != nil && t.since <= i {
			*t.s, s.held[id] = t.at[i], true
			s.n++
		}
	}
}

// Kept is the number of events the run Rewind restores had retained at
// mark i (0 for a nil recorder): the events a rewind to i leaves.
func (x *Suffixes) Kept(i int) int {
	if x == nil {
		return 0
	}
	return x.kept[i]
}

// Suffix is the telemetry a recorded run gained after one of its marks:
// the deltas of the series that moved, each naming its series by id in
// ids, the recorded registry's id space, their suffix extremes, and the
// event tail. A nil *Suffix gains nothing.
type Suffix struct {
	ids      *idSpace // nil for a recording on an events-only collector
	counters []counterAdd
	hists    []histAdd
	gauges   []gaugeMax
	events   []Event // the tail the recording retained
	emitted  uint64  // the events the suffix emitted, retained or not
}

type counterAdd struct {
	series int
	n      uint64
}

// histAdd is a histogram's samples (ext.n is the count delta) with their
// extremes, the sum delta, and the bucket deltas from bucket lo on.
type histAdd struct {
	series  int
	ext     histExt
	sum     uint64
	lo      int
	buckets []uint64
}

// gaugeMax is a gauge's suffix maximum (unset when the suffix set none).
type gaugeMax struct {
	series int
	g      Gauge
}

// suffixStore holds a recorder's cut suffixes, deltas and event tails.
type suffixStore struct {
	suffixes arena.Arena[Suffix]
	counters arena.Arena[counterAdd]
	hists    arena.Arena[histAdd]
	buckets  arena.Arena[uint64]
	gauges   arena.Arena[gaugeMax]
	events   arena.Arena[Event]
}

// Chunk switches the recorder from storage sized to each request, for
// runs cut once, to chunks of 24–40 KiB, so a recorder that cuts
// suffixes run after run allocates per chunk rather than per suffix.
func (x *Suffixes) Chunk() {
	if x != nil {
		s := &x.store
		s.suffixes.Chunk, s.counters.Chunk, s.hists.Chunk = 256, 2048, 512
		s.buckets.Chunk, s.gauges.Chunk, s.events.Chunk = 4096, 1024, 512
	}
}

// Cut returns the suffix after mark i of the run End closed, while its
// collector is still in its end state: the delta of every series that
// moved or was created after the mark, their suffix extremes, and the
// events retained after the mark (nil without a recorder).
//
//nlft:noalloc
func (x *Suffixes) Cut(i int) *Suffix {
	if x == nil {
		return nil
	}
	s := &x.store
	out := Suffix{events: x.tail[x.kept[i]-x.kept[0]:], emitted: x.emitted - x.emits[i]}
	if x.reg != nil {
		out.ids = x.reg.ids
	}
	off := s.counters.Reserve(len(x.counters))
	for j := range x.counters {
		if t := &x.counters[j]; t.s != nil && (t.since > i || t.at[i].n != t.s.n) {
			s.counters.Add(counterAdd{series: j, n: t.s.n - t.at[i].n})
		}
	}
	out.counters, off = s.counters.Since(off), s.hists.Reserve(len(x.hists))
	for j := range x.hists {
		t := &x.hists[j]
		if t.s == nil || t.since <= i && t.ext[i].n == 0 {
			continue
		}
		h, a := t.s, &t.at[i]
		lo, hi := 0, len(h.buckets)
		for ; lo < hi && h.buckets[lo] == a.buckets[lo]; lo++ {
		}
		for ; hi > lo && h.buckets[hi-1] == a.buckets[hi-1]; hi-- {
		}
		b := s.buckets.Reserve(hi - lo)
		for k := lo; k < hi; k++ {
			s.buckets.Add(h.buckets[k] - a.buckets[k])
		}
		s.hists.Add(histAdd{series: j, ext: t.ext[i], sum: h.sum - a.sum, lo: lo, buckets: s.buckets.Since(b)})
	}
	out.hists, off = s.hists.Since(off), s.gauges.Reserve(len(x.gauges))
	for j := range x.gauges {
		if t := &x.gauges[j]; t.s != nil && (t.since > i || t.ext[i].set) {
			s.gauges.Add(gaugeMax{series: j, g: t.ext[i]})
		}
	}
	out.gauges = s.gauges.Since(off)
	return s.suffixes.Add(out)
}

// Fits reports whether s's event tail holds every event c would retain
// of it (a nil s has none to hold). The recording keeps the first events
// of the suffix; it falls short only when its cap dropped some of them
// and c has more room left than the recording had at the mark.
//
//nlft:noalloc
func (s *Suffix) Fits(c *Collector) bool {
	if s == nil || c == nil || c.s.disabled {
		return true
	}
	need := s.emitted
	if c.s.limit > 0 {
		need = min(need, uint64(max(c.s.limit-len(c.s.events), 0)))
	}
	return need <= uint64(len(s.events))
}

// Compose adds suffix s to c: counters, histogram buckets,
// counts and sums by their deltas, extremes by the suffix's, and the
// event tail (which s.Fits must accept) under c's cap exactly as Emit,
// but uncounted, since the deltas hold its events.* counts. A series the
// suffix did not touch is left alone; one it created is created. Each
// series is found by id when c's registry is in the recording's id
// space, and by key otherwise. A suffix recorded on an events-only
// collector holds no deltas.
//
//nlft:noalloc
func (s *Suffix) Compose(c *Collector) {
	if s == nil || c == nil {
		return
	}
	if r := c.reg; r != nil && s.ids != nil {
		for _, d := range s.counters {
			r.counters.get(r.ids.counters.from(&s.ids.counters, d.series)).Add(d.n)
		}
		for i := range s.hists {
			d := &s.hists[i]
			h := r.hists.get(r.ids.hists.from(&s.ids.hists, d.series))
			all := histExt{min: h.min, max: h.max, n: h.count}.widen(d.ext)
			h.min, h.max, h.count, h.sum = all.min, all.max, h.count+d.ext.n, h.sum+d.sum
			for k, n := range d.buckets {
				h.buckets[d.lo+k] += n
			}
		}
		for _, d := range s.gauges {
			if g := r.gauges.get(r.ids.gauges.from(&s.ids.gauges, d.series)); d.g.set {
				g.SetMax(d.g.v)
			}
		}
	}
	if !c.s.disabled {
		keep := len(s.events)
		if c.s.limit > 0 {
			keep = min(keep, max(c.s.limit-len(c.s.events), 0))
		}
		c.s.events = append(c.s.events, s.events[:keep]...)
		c.s.dropped += s.emitted - uint64(keep)
	}
}

// KeepsEvents reports whether c retains events: false for a nil or
// metrics-only collector, whose emitted events only count.
func (c *Collector) KeepsEvents() bool { return c != nil && !c.s.disabled }
