package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The registry's reference model: series in maps keyed by Key, the way
// a registry without series ids holds them, with the exports, digest
// and merge of one. FuzzRegistryModel drives the id-indexed registry,
// its suffix recorder and its merges against it.

// modelRegistry is a map-keyed registry.
type modelRegistry struct {
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
}

func newModelRegistry() *modelRegistry {
	return &modelRegistry{counters: map[Key]*Counter{}, gauges: map[Key]*Gauge{}, hists: map[Key]*Histogram{}}
}

func (m *modelRegistry) counter(k Key) *Counter { return lookup(m.counters, k) }
func (m *modelRegistry) gauge(k Key) *Gauge     { return lookup(m.gauges, k) }
func (m *modelRegistry) hist(k Key) *Histogram  { return lookup(m.hists, k) }

// lookup returns m's series k, creating it at zero if absent.
func lookup[T any](m map[Key]*T, k Key) *T {
	v := m[k]
	if v == nil {
		v = new(T)
		m[k] = v
	}
	return v
}

// clone returns a deep copy of m.
func (m *modelRegistry) clone() *modelRegistry {
	out := newModelRegistry()
	for k, v := range m.counters {
		c := *v
		out.counters[k] = &c
	}
	for k, v := range m.gauges {
		g := *v
		out.gauges[k] = &g
	}
	for k, v := range m.hists {
		h := *v
		out.hists[k] = &h
	}
	return out
}

// merge folds o into m by key: counters and histograms add, gauges keep
// the maximum, and an unset gauge creates nothing.
func (m *modelRegistry) merge(o *modelRegistry) {
	for k, c := range o.counters {
		m.counter(k).Add(c.n)
	}
	for k, g := range o.gauges {
		if g.set {
			m.gauge(k).SetMax(g.v)
		}
	}
	for k, h := range o.hists {
		dst := m.hist(k)
		if h.count == 0 {
			continue
		}
		for i, n := range h.buckets {
			dst.buckets[i] += n
		}
		if dst.count == 0 || h.min < dst.min {
			dst.min = h.min
		}
		dst.max = max(dst.max, h.max)
		dst.count += h.count
		dst.sum += h.sum
	}
}

// snapshot is Registry.Snapshot over the maps.
func (m *modelRegistry) snapshot() []MetricPoint {
	points := []MetricPoint{}
	for k, c := range m.counters {
		points = append(points, MetricPoint{Key: k, Type: "counter", Value: float64(c.n)})
	}
	for k, g := range m.gauges {
		points = append(points, MetricPoint{Key: k, Type: "gauge", Value: g.v})
	}
	for k, h := range m.hists {
		points = append(points, MetricPoint{
			Key: k, Type: "histogram",
			Value: h.Mean(), Count: h.count, Sum: float64(h.sum),
			Min: float64(h.min), Max: float64(h.max),
			P50: float64(h.Quantile(0.5)), P99: float64(h.Quantile(0.99)),
		})
	}
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(a.Node, b.Node),
			strings.Compare(a.Task, b.Task), strings.Compare(a.Mechanism, b.Mechanism),
			strings.Compare(a.Type, b.Type)) < 0
	})
	return points
}

// digest is Registry.Digest over the model's snapshot.
func (m *modelRegistry) digest() uint64 {
	d := newDigest()
	for _, p := range m.snapshot() {
		for _, s := range []string{p.Name, p.Node, p.Task, p.Mechanism, p.Type,
			fmt.Sprintf("%g/%d/%g/%g/%g", p.Value, p.Count, p.Sum, p.Min, p.Max)} {
			d.string(s)
		}
	}
	return d.sum()
}

// wire is Registry.Wire over the maps: series sorted by key, histogram
// buckets with trailing zeros trimmed.
func (m *modelRegistry) wire() *RegistryWire {
	w := &RegistryWire{}
	for _, p := range m.snapshot() {
		k := keyWire(p.Key)
		switch p.Type {
		case "counter":
			w.Counters = append(w.Counters, CounterWire{Key: k, Value: m.counters[p.Key].n})
		case "gauge":
			g := m.gauges[p.Key]
			w.Gauges = append(w.Gauges, GaugeWire{Key: k, Value: g.v, Set: g.set})
		default:
			h := m.hists[p.Key]
			hw := HistogramWire{Key: k, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
			top := len(h.buckets)
			for top > 0 && h.buckets[top-1] == 0 {
				top--
			}
			if top > 0 {
				hw.Buckets = append([]uint64(nil), h.buckets[:top]...)
			}
			w.Hists = append(w.Hists, hw)
		}
	}
	return w
}

// registryState is the full content of a registry by key, buckets
// included: what the wire form must carry.
type registryState struct {
	Counters map[Key]uint64
	Gauges   map[Key]Gauge
	Hists    map[Key]Histogram
}

// stateOf reads r's present series by key.
func stateOf(r *Registry) registryState {
	s := registryState{map[Key]uint64{}, map[Key]Gauge{}, map[Key]Histogram{}}
	for id, held := range r.counters.held {
		if held {
			s.Counters[r.ids.counters.keys[id]] = r.counters.at[id].n
		}
	}
	for id, held := range r.gauges.held {
		if held {
			s.Gauges[r.ids.gauges.keys[id]] = *r.gauges.at[id]
		}
	}
	for id, held := range r.hists.held {
		if held {
			s.Hists[r.ids.hists.keys[id]] = *r.hists.at[id]
		}
	}
	return s
}

// modelCollector is a collector over a model registry.
type modelCollector struct {
	reg      *modelRegistry
	events   []Event
	dropped  uint64
	limit    int
	disabled bool
}

func (m *modelCollector) clone() *modelCollector {
	c := *m
	c.reg, c.events = m.reg.clone(), append([]Event(nil), m.events...)
	return &c
}

// emit is Collector.Emit with the event's node already stamped.
func (m *modelCollector) emit(e Event) {
	k := Key{Name: kindMetricNames[e.Kind], Node: e.Node, Task: e.Task}
	if e.Kind == KindErrorDetected {
		k.Mechanism = e.Detail
	}
	m.reg.counter(k).Inc()
	switch {
	case m.disabled:
	case m.limit > 0 && len(m.events) >= m.limit:
		m.dropped++
	default:
		m.events = append(m.events, e)
	}
}

// modelOp is one step on a model collector; a suffix composes as the
// replay of the steps its run took after the mark. Every such step
// changes the series it touches: a suffix holds deltas, so a lookup
// that changes nothing is not in it.
type modelOp func(m *modelCollector)

// fuzzRun is the model of a recorded run: the model collector at each
// mark and the run's steps, with each mark's first step.
type fuzzRun struct {
	marks []*modelCollector
	from  []int
	ops   []modelOp
}

// fuzzSuffix is a cut suffix and the steps it composes as.
type fuzzSuffix struct {
	s   *Suffix
	ops []modelOp
}

// registryWorld is the fuzzed system: a recorded collector A, with a
// labeled view V of it, a collector B whose registry is a sibling of
// A's (one id space), and a collector F with an id space of its own,
// each beside its model; A's recorder, the recorder kept from a run
// whose first mark saw no events (the checkpoints of a fork engine) and
// the suffixes cut so far.
type registryWorld struct {
	t      *testing.T
	cols   [3]*Collector
	models [3]*modelCollector
	view   *Collector
	x      *Suffixes
	run    *fuzzRun
	kept   *Suffixes
	keptAt []*modelCollector
	cut    []fuzzSuffix
	// composed counts compositions.
	composed int
}

var fuzzKeys = []Key{
	{Name: "a", Node: "n"}, {Name: "a", Node: "n", Task: "t"},
	{Name: "a", Node: "n", Mechanism: "m"}, {Name: "b", Node: "n", Task: "t"},
}

// newRegistryWorld builds the collectors with event limit limit.
func newRegistryWorld(t *testing.T, limit int) *registryWorld {
	w := &registryWorld{t: t, x: NewSuffixes(4)}
	a := NewCollector("n")
	w.cols = [3]*Collector{a, {node: "n", reg: a.reg.Sibling(), s: &stream{}}, NewCollector("n")}
	for i, c := range w.cols {
		c.SetEventLimit(limit)
		w.models[i] = &modelCollector{reg: newModelRegistry(), limit: c.s.limit, disabled: c.s.disabled}
	}
	w.view = a.Labeled("v")
	return w
}

// apply runs one step on collector i and its model, and logs it to the
// open run when it acts on A.
func (w *registryWorld) apply(i int, sut func(c *Collector), model modelOp) {
	sut(w.cols[i])
	model(w.models[i])
	if i == 0 && w.run != nil {
		w.run.ops = append(w.run.ops, model)
	}
}

// step decodes and runs one fuzzed step.
func (w *registryWorld) step(op, arg byte) {
	i, k := int(arg%3), fuzzKeys[int(arg/3)%len(fuzzKeys)]
	v := uint64(1)<<(arg%23) + uint64(arg)
	switch op % 12 {
	case 0:
		w.apply(i, func(c *Collector) { c.Counter(k.Name, k.Task, k.Mechanism).Inc() },
			func(m *modelCollector) { m.reg.counter(k).Inc() })
	case 1:
		d := uint64(arg%3) + 1
		w.apply(i, func(c *Collector) { c.Counter(k.Name, k.Task, k.Mechanism).Add(d) },
			func(m *modelCollector) { m.reg.counter(k).Add(d) })
	case 2:
		w.apply(i, func(c *Collector) { c.Histogram(k.Name, k.Task).Observe(v) },
			func(m *modelCollector) { m.reg.hist(Key{Name: k.Name, Node: "n", Task: k.Task}).Observe(v) })
	case 3:
		w.apply(i, func(c *Collector) { c.Gauge(k.Name, k.Task).SetMax(float64(v)) },
			func(m *modelCollector) { m.reg.gauge(Key{Name: k.Name, Node: "n", Task: k.Task}).SetMax(float64(v)) })
	case 4, 5:
		e := Event{At: 1, Kind: []Kind{KindRelease, KindDispatch, KindCommit}[arg%3], Task: k.Task}
		if op%12 == 5 {
			e.Kind, e.Detail = KindErrorDetected, []string{"", "m1", "m2"}[arg%3]
		}
		node := []string{"n", "v"}[arg/3%2]
		j := 0
		if arg%5 == 4 {
			j = 2
		}
		modelled := e
		modelled.Node = node
		w.apply(j, func(c *Collector) {
			if node == "v" && j == 0 {
				w.view.Emit(e)
			} else {
				c.Emit(modelled)
			}
		}, func(m *modelCollector) { m.emit(modelled) })
	case 6:
		w.mark()
	case 7:
		w.end(arg%2 == 1)
	case 8:
		if w.kept != nil && w.run == nil {
			b := int(arg) % len(w.keptAt)
			w.kept.Rewind(w.cols[0], b)
			w.models[0] = w.keptAt[b].clone()
		}
	case 9:
		// A run that composes its own earlier suffixes can double its
		// content each time; a few compositions onto a short stream
		// keep a step's work bounded.
		if len(w.cut) > 0 && w.composed < 8 && len(w.cols[i].Events()) < 64 {
			s := w.cut[int(arg/3)%len(w.cut)]
			if !s.s.Fits(w.cols[i]) {
				return
			}
			w.composed++
			w.apply(i, s.s.Compose, func(m *modelCollector) {
				for _, op := range s.ops {
					op(m)
				}
			})
		}
	case 10:
		// A holds interval extremes while a run is open, so it is a
		// merge source only between runs, and a merge can add zero
		// to a series, which no suffix delta holds, so it is a merge
		// target only between runs too.
		src, dst := int(arg%3), int(arg/3%3)
		if src == dst || (src == 0 || dst == 0) && w.run != nil {
			return
		}
		from := w.models[src].reg.clone()
		w.apply(dst, func(c *Collector) { c.reg.Merge(w.cols[src].reg) },
			func(m *modelCollector) { m.reg.merge(from) })
	case 11:
		into := NewRegistry()
		if w.run == nil {
			into.Merge(w.cols[i].reg)
			w.compare(fmt.Sprintf("fresh merge of collector %d", i), into, w.models[i].reg)
		}
	}
}

// mark marks A, starting a run at the first mark.
func (w *registryWorld) mark() {
	if w.run == nil {
		w.run = &fuzzRun{}
		w.x.Reset(w.cols[0])
	}
	w.x.Mark(w.cols[0])
	w.run.marks = append(w.run.marks, w.models[0].clone())
	w.run.from = append(w.run.from, len(w.run.ops))
}

// end ends the open run and cuts a suffix at each of its marks; keep
// then keeps the run for rewinds, if its first mark saw no events.
func (w *registryWorld) end(keep bool) {
	if w.run == nil {
		return
	}
	w.x.End(w.cols[0])
	for b := range w.run.marks {
		w.cut = append(w.cut, fuzzSuffix{w.x.Cut(b), w.run.ops[w.run.from[b]:]})
	}
	if first := w.run.marks[0]; keep && len(first.events) == 0 && first.dropped == 0 {
		w.kept, w.keptAt = w.x.Keep(), w.run.marks
	}
	w.run = nil
}

// compare checks a registry against its model: snapshot, wire bytes
// and digest.
func (w *registryWorld) compare(what string, r *Registry, m *modelRegistry) {
	w.t.Helper()
	if g, want := r.Snapshot(), m.snapshot(); !reflect.DeepEqual(g, want) {
		w.t.Fatalf("%s: snapshot %v, model %v", what, g, want)
	}
	g, err := json.Marshal(r.Wire())
	if err != nil {
		w.t.Fatal(err)
	}
	want, err := json.Marshal(m.wire())
	if err != nil {
		w.t.Fatal(err)
	}
	if !bytes.Equal(g, want) {
		w.t.Fatalf("%s: wire %s, model %s", what, g, want)
	}
	if g, want := r.Digest(), m.digest(); g != want {
		w.t.Fatalf("%s: digest %#x, model %#x", what, g, want)
	}
}

// check compares every collector with its model. A's registry holds
// each open interval's extremes, not the run's, so it is compared
// between runs.
func (w *registryWorld) check(what string) {
	w.t.Helper()
	for i, c := range w.cols {
		if i > 0 || w.run == nil {
			w.compare(fmt.Sprintf("%s, collector %d", what, i), c.reg, w.models[i].reg)
		}
		m := w.models[i]
		if !slices.Equal(c.Events(), m.events) || c.Dropped() != m.dropped {
			w.t.Fatalf("%s, collector %d: %d events (%d dropped), model %d (%d dropped)",
				what, i, len(c.Events()), c.Dropped(), len(m.events), m.dropped)
		}
	}
}

// maxFuzzSteps bounds an input's steps, which keeps one execution in
// the milliseconds, so the fuzzer's minimization of each new input
// stays short.
const maxFuzzSteps = 64

// FuzzRegistryModel drives random step sequences — series created and
// updated on three collectors, events emitted with and without a
// detail and through a labeled view, recorded runs marked, ended and
// cut, kept and rewound to, suffixes composed onto the recorded
// registry, its sibling and a foreign one, merges within the id space
// and across spaces — and compares every registry with the map-keyed
// model after each step.
func FuzzRegistryModel(f *testing.F) {
	f.Add(uint8(0), []byte{6, 0, 0, 3, 2, 7, 4, 1, 6, 0, 3, 9, 7, 1, 8, 1, 9, 4, 10, 1})
	f.Add(uint8(1), []byte{6, 0, 4, 3, 6, 0, 5, 4, 2, 9, 7, 1, 8, 0, 6, 0, 4, 3, 7, 0, 9, 2, 9, 5, 10, 3, 11, 0})
	f.Add(uint8(2), []byte{0, 1, 6, 0, 1, 5, 2, 8, 3, 11, 6, 2, 7, 3, 8, 2, 9, 1, 10, 5, 10, 7, 11, 1})
	f.Add(uint8(1), []byte{6, 0, 4, 0, 4, 3, 6, 1, 4, 3, 4, 0, 7, 1, 8, 0, 4, 3, 8, 1, 4, 3})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		w := newRegistryWorld(t, []int{0, 3, -1}[shape%3])
		for n := 0; n+1 < len(ops) && n < 2*maxFuzzSteps; n += 2 {
			w.step(ops[n], ops[n+1])
			w.check(fmt.Sprintf("step %d (%d, %d)", n/2, ops[n], ops[n+1]))
		}
		w.end(false)
		w.check("end")
	})
}
