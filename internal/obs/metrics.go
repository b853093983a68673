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

// Registry holds metric series keyed by Key. The zero value is not
// usable; construct with NewRegistry. A registry is single-goroutine;
// parallel producers each own one and merge afterwards.
type Registry struct {
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
}

// NewRegistry returns an empty registry. The counter map is pre-sized
// for the ~40 series a single kernel trial produces, so per-trial
// collectors do not pay incremental map growth.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter, 48),
		gauges:   make(map[Key]*Gauge, 4),
		hists:    make(map[Key]*Histogram, 4),
	}
}

// Counter returns the counter for k, creating it at zero if absent.
func (r *Registry) Counter(k Key) *Counter {
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for k, creating it if absent.
func (r *Registry) Gauge(k Key) *Gauge {
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for k, creating it if absent.
func (r *Registry) Histogram(k Key) *Histogram {
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// CounterValue reports the counter's value without creating the series.
func (r *Registry) CounterValue(k Key) uint64 {
	if c := r.counters[k]; c != nil {
		return c.n
	}
	return 0
}

// CounterTotal sums every counter named name across all label values.
func (r *Registry) CounterTotal(name string) uint64 {
	var total uint64
	//nlft:allow nodeterminism commutative sum; iteration order cannot affect the total
	for k, c := range r.counters {
		if k.Name == name {
			total += c.n
		}
	}
	return total
}

// MechanismCounts collects the counters named name grouped by their
// mechanism label, summed over the other labels. The campaign layer uses
// it to recompute Table 1 coverage from exported metrics.
func (r *Registry) MechanismCounts(name string) map[string]uint64 {
	out := make(map[string]uint64)
	//nlft:allow nodeterminism commutative per-key sums into a map; iteration order cannot affect the result
	for k, c := range r.counters {
		if k.Name == name {
			out[k.Mechanism] += c.n
		}
	}
	return out
}

// Merge folds other into r: counters and histograms add, gauges keep the
// maximum. All operations are commutative and associative, so any merge
// order yields the same registry.
//
//nlft:merge
func (r *Registry) Merge(other *Registry) {
	if other == nil {
		return
	}
	//nlft:allow nodeterminism counter merge adds, which commutes; iteration order cannot affect the result
	for k, c := range other.counters {
		r.Counter(k).Add(c.n)
	}
	//nlft:allow nodeterminism gauge merge keeps the maximum, which commutes; iteration order cannot affect the result
	for k, g := range other.gauges {
		if g.set {
			r.Gauge(k).SetMax(g.v)
		}
	}
	//nlft:allow nodeterminism histogram merge adds buckets and widens extremes, which commutes
	for k, h := range other.hists {
		dst := r.Histogram(k)
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
// Mechanism, Type) — a canonical order independent of map iteration, so
// exports and digests are deterministic.
func (r *Registry) Snapshot() []MetricPoint {
	points := make([]MetricPoint, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	//nlft:allow nodeterminism collection order is erased by the canonical sort below
	for k, c := range r.counters {
		points = append(points, MetricPoint{Key: k, Type: "counter", Value: float64(c.n)})
	}
	//nlft:allow nodeterminism collection order is erased by the canonical sort below
	for k, g := range r.gauges {
		points = append(points, MetricPoint{Key: k, Type: "gauge", Value: g.v})
	}
	//nlft:allow nodeterminism collection order is erased by the canonical sort below
	for k, h := range r.hists {
		points = append(points, MetricPoint{
			Key: k, Type: "histogram",
			Value: h.Mean(), Count: h.count, Sum: float64(h.sum),
			Min: float64(h.min), Max: float64(h.max),
			P50: float64(h.Quantile(0.5)), P99: float64(h.Quantile(0.99)),
		})
	}
	//nlft:allow nodeterminism the comparator is a total order: (Name, Node, Task, Mechanism, Type) uniquely identifies a series
	sort.Slice(points, func(i, j int) bool {
		a, b := &points[i], &points[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Mechanism != b.Mechanism {
			return a.Mechanism < b.Mechanism
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
