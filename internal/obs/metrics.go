package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Key identifies one metric series: a metric name plus the node, task
// and mechanism labels of the paper's accounting dimensions. Unused
// labels stay empty. Key is a comparable value type so registry lookups
// never allocate.
type Key struct {
	Name      string
	Node      string
	Task      string
	Mechanism string
}

// less orders keys canonically: (Name, Node, Task, Mechanism) is a
// total order because it uniquely identifies a series.
func (k Key) less(o Key) bool {
	if k.Name != o.Name {
		return k.Name < o.Name
	}
	if k.Node != o.Node {
		return k.Node < o.Node
	}
	if k.Task != o.Task {
		return k.Task < o.Task
	}
	return k.Mechanism < o.Mechanism
}

// String renders the key in a prometheus-like form.
func (k Key) String() string {
	s := k.Name
	sep := "{"
	add := func(label, v string) {
		if v != "" {
			s += sep + label + "=" + v
			sep = ","
		}
	}
	add("node", k.Node)
	add("task", k.Task)
	add("mechanism", k.Mechanism)
	if sep == "," {
		s += "}"
	}
	return s
}

// Counter is a monotonically increasing count. It is not synchronized:
// each collector is owned by one goroutine (one trial, one simulation),
// and cross-goroutine aggregation happens by merging registries. A nil
// *Counter — an events-only collector's — counts nothing.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n += d
	}
}

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is a last/extreme-value metric. Merging registries keeps the
// maximum, which makes the merge order-independent (peak semantics). A
// nil *Gauge records nothing.
type Gauge struct {
	v   float64
	set bool
}

// Set records v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v, g.set = v, true
	}
}

// SetMax records v only if it exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g != nil && (!g.set || v > g.v) {
		g.v, g.set = v, true
	}
}

// Value reports the current value (0 when never set).
func (g *Gauge) Value() float64 { return g.v }

// histBuckets is one bucket per value bit-length: bucket i holds values
// whose bits.Len64 is i, i.e. [2^(i-1), 2^i). Bucket 0 holds zero.
const histBuckets = 65

// Histogram accumulates a distribution of uint64 samples (cycle counts,
// queue depths) into power-of-two buckets. A nil *Histogram records
// nothing.
type Histogram struct {
	buckets  [histBuckets]uint64
	count    uint64
	sum      uint64
	min, max uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min and Max report the extreme samples (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max reports the largest sample (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean reports the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket where the cumulative count crosses q, clamped to the
// observed extremes.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	threshold := uint64(math.Ceil(q * float64(h.count)))
	if threshold == 0 {
		threshold = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= threshold {
			upper := uint64(0)
			if i > 0 {
				upper = 1<<uint(i) - 1
			}
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return upper
		}
	}
	return h.max
}

// Registry holds metric series keyed by Key. Every series has a dense
// id in its kind's id space, assigned the first time its key is seen,
// and its value lives in id-indexed storage that never moves, so the
// pointers components cache at build time stay valid for the registry's
// life. The key index is consulted only to create a series and by the
// by-key APIs; merges between registries of one id space (Sibling),
// suffix composition and rewinds index by id. A series the registry
// holds is present; a rewind (Suffixes.Rewind) makes series absent
// without deleting them, and the next lookup makes one present again
// at its zero value, exactly as a fresh series. Only present series are
// merged, exported, snapshotted and digested. The zero value is not
// usable; construct with NewRegistry. A registry is single-goroutine,
// and so are its siblings, which share its id space; parallel producers
// each own one and merge afterwards.
type Registry struct {
	ids      *idSpace
	counters series[Counter]
	gauges   series[Gauge]
	hists    series[Histogram]
}

// idSpace numbers the series of one or more registries: a key index per
// kind, since one key may name a counter, a gauge and a histogram.
type idSpace struct {
	counters, gauges, hists keyIndex
}

// keyIndex numbers keys densely in first-seen order: keys[id] is the
// key of series id.
type keyIndex struct {
	ids  map[Key]int
	keys []Key
}

// of returns k's id, numbering it if it is new.
func (x *keyIndex) of(k Key) int {
	id, ok := x.ids[k]
	if !ok {
		id = len(x.keys)
		x.ids[k] = id
		//nlft:allow mergecommute ids number keys in first-seen order; every export, digest and merge result is independent of them
		x.keys = append(x.keys, k)
	}
	return id
}

// from returns this index's id for series id of index src: the same id
// when src is this index, else the id of its key.
func (x *keyIndex) from(src *keyIndex, id int) int {
	if src == x {
		return id
	}
	return x.of(src.keys[id])
}

// series is one kind's storage: each series' value by id, allocated the
// first time the registry holds it and never moved, and whether the
// registry holds it now.
type series[T any] struct {
	at   []*T
	held []bool
	n    int // series held
}

// get returns series id, making it present: a series the registry does
// not hold — new to it, or made absent by a rewind — starts at zero.
func (s *series[T]) get(id int) *T {
	if id >= len(s.at) {
		s.at = append(s.at, make([]*T, id+1-len(s.at))...)
		s.held = append(s.held, make([]bool, id+1-len(s.held))...)
	}
	if !s.held[id] {
		if s.at[id] == nil {
			s.at[id] = new(T)
		}
		var zero T
		*s.at[id], s.held[id] = zero, true
		s.n++
	}
	return s.at[id]
}

// NewRegistry returns an empty registry with an id space of its own.
// The counter index is pre-sized for the ~40 series a single kernel
// trial produces.
func NewRegistry() *Registry {
	return &Registry{ids: &idSpace{
		counters: keyIndex{ids: make(map[Key]int, 48)},
		gauges:   keyIndex{ids: make(map[Key]int, 4)},
		hists:    keyIndex{ids: make(map[Key]int, 4)},
	}}
}

// Sibling returns an empty registry in r's id space: merging either
// into the other indexes series by id and hashes no key. It shares r's
// goroutine. A fork campaign's slot accumulates each trial's instance
// registry into a sibling of it.
func (r *Registry) Sibling() *Registry { return &Registry{ids: r.ids} }

// Counter returns the counter for k, creating it at zero if absent.
func (r *Registry) Counter(k Key) *Counter { return r.counters.get(r.ids.counters.of(k)) }

// Gauge returns the gauge for k, creating it if absent.
func (r *Registry) Gauge(k Key) *Gauge { return r.gauges.get(r.ids.gauges.of(k)) }

// Histogram returns the histogram for k, creating it if absent.
func (r *Registry) Histogram(k Key) *Histogram { return r.hists.get(r.ids.hists.of(k)) }

// CounterValue reports the counter's value without creating the series.
func (r *Registry) CounterValue(k Key) uint64 {
	if id, ok := r.ids.counters.ids[k]; ok && id < len(r.counters.held) && r.counters.held[id] {
		return r.counters.at[id].n
	}
	return 0
}

// CounterTotal sums every counter named name across all label values.
func (r *Registry) CounterTotal(name string) uint64 {
	var total uint64
	for id, held := range r.counters.held {
		if held && r.ids.counters.keys[id].Name == name {
			total += r.counters.at[id].n
		}
	}
	return total
}

// MechanismCounts collects the counters named name grouped by their
// mechanism label, summed over the other labels. The campaign layer uses
// it to recompute Table 1 coverage from exported metrics.
func (r *Registry) MechanismCounts(name string) map[string]uint64 {
	out := make(map[string]uint64)
	for id, held := range r.counters.held {
		if k := r.ids.counters.keys[id]; held && k.Name == name {
			out[k.Mechanism] += r.counters.at[id].n
		}
	}
	return out
}

// Merge folds other into r: counters and histograms add, gauges keep the
// maximum. All operations are commutative and associative, so any merge
// order yields the same registry. Each series other holds is found in r
// by id when the two share an id space and by key otherwise.
//
//nlft:merge
func (r *Registry) Merge(other *Registry) {
	if other == nil {
		return
	}
	for id, held := range other.counters.held {
		if held {
			dst := r.counters.get(r.ids.counters.from(&other.ids.counters, id))
			dst.n += other.counters.at[id].n
		}
	}
	for id, held := range other.gauges.held {
		if g := other.gauges.at[id]; held && g.set {
			r.gauges.get(r.ids.gauges.from(&other.ids.gauges, id)).SetMax(g.v)
		}
	}
	for id, held := range other.hists.held {
		if !held {
			continue
		}
		dst, h := r.hists.get(r.ids.hists.from(&other.ids.hists, id)), other.hists.at[id]
		if h.count == 0 {
			continue
		}
		for i, n := range h.buckets {
			dst.buckets[i] += n
		}
		if dst.count == 0 || h.min < dst.min {
			dst.min = h.min
		}
		if h.max > dst.max {
			dst.max = h.max
		}
		dst.count += h.count
		dst.sum += h.sum
	}
}

// MetricPoint is one exported metric row.
type MetricPoint struct {
	Key
	Type  string  // "counter", "gauge" or "histogram"
	Value float64 // counter or gauge value; histogram mean
	Count uint64  // histogram sample count
	Sum   float64 // histogram sum
	Min   float64 // histogram minimum
	Max   float64 // histogram maximum
	P50   float64 // histogram median estimate
	P99   float64 // histogram 99th-percentile estimate
}

// Snapshot flattens the registry into rows sorted by (Name, Node, Task,
// Mechanism, Type) — a canonical order independent of the order series
// were created or merged in, so exports and digests are deterministic.
func (r *Registry) Snapshot() []MetricPoint {
	points := make([]MetricPoint, 0, r.counters.n+r.gauges.n+r.hists.n)
	for id, held := range r.counters.held {
		if held {
			points = append(points, MetricPoint{Key: r.ids.counters.keys[id], Type: "counter", Value: float64(r.counters.at[id].n)})
		}
	}
	for id, held := range r.gauges.held {
		if held {
			points = append(points, MetricPoint{Key: r.ids.gauges.keys[id], Type: "gauge", Value: r.gauges.at[id].v})
		}
	}
	for id, held := range r.hists.held {
		if h := r.hists.at[id]; held {
			points = append(points, MetricPoint{
				Key: r.ids.hists.keys[id], Type: "histogram",
				Value: h.Mean(), Count: h.count, Sum: float64(h.sum),
				Min: float64(h.min), Max: float64(h.max),
				P50: float64(h.Quantile(0.5)), P99: float64(h.Quantile(0.99)),
			})
		}
	}
	sort.SliceStable(points, func(i, j int) bool {
		a, b := &points[i], &points[j]
		if a.Key != b.Key {
			return a.Key.less(b.Key)
		}
		return a.Type < b.Type
	})
	return points
}

// Digest returns a 64-bit FNV-1a digest of the canonical snapshot.
// Registries with identical series digest identically regardless of
// construction or merge order.
func (r *Registry) Digest() uint64 {
	d := newDigest()
	for _, p := range r.Snapshot() {
		d.string(p.Name)
		d.string(p.Node)
		d.string(p.Task)
		d.string(p.Mechanism)
		d.string(p.Type)
		d.string(fmt.Sprintf("%g/%d/%g/%g/%g", p.Value, p.Count, p.Sum, p.Min, p.Max))
	}
	return d.sum()
}
