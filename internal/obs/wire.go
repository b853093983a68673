package obs

// The canonical wire encoding of a Registry. The sharded campaign
// orchestrator (internal/shard) streams each worker shard's merged
// registry back to the coordinator, which folds the shards through
// Registry.Merge. That only reproduces the serial campaign's registry
// bit-for-bit if the wire form is lossless — histograms must carry
// their full bucket vectors, not the summarized MetricPoint rows the
// exporters flatten to — and canonical, so the same registry always
// encodes to the same bytes regardless of the order its series were
// created or merged in.
//
// Round-trip contract (guarded by TestRegistryWireRoundTrip): for any
// registry r, r.Wire().Registry() holds exactly r's series with exactly
// r's values, so its Digest equals r's and merging the decoded copy is
// indistinguishable from merging the original.

import "sort"

// KeyWire is the wire form of a series key.
type KeyWire struct {
	Name      string `json:"name"`
	Node      string `json:"node,omitempty"`
	Task      string `json:"task,omitempty"`
	Mechanism string `json:"mechanism,omitempty"`
}

func keyWire(k Key) KeyWire {
	return KeyWire{Name: k.Name, Node: k.Node, Task: k.Task, Mechanism: k.Mechanism}
}

// Key converts the wire form back to a registry key.
func (k KeyWire) Key() Key {
	return Key{Name: k.Name, Node: k.Node, Task: k.Task, Mechanism: k.Mechanism}
}

// CounterWire is one counter series on the wire.
type CounterWire struct {
	Key   KeyWire `json:"key"`
	Value uint64  `json:"value"`
}

// GaugeWire is one gauge series on the wire. Set distinguishes a gauge
// that recorded 0 from one never set (merges ignore unset gauges).
type GaugeWire struct {
	Key   KeyWire `json:"key"`
	Value float64 `json:"value"`
	Set   bool    `json:"set"`
}

// HistogramWire is one histogram series on the wire, carrying the full
// bucket vector (trailing zero buckets trimmed; decode re-pads) so the
// decoded histogram observes-equivalent state, not a lossy summary.
type HistogramWire struct {
	Key     KeyWire  `json:"key"`
	Buckets []uint64 `json:"buckets,omitempty"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
}

// RegistryWire is the canonical, lossless wire encoding of a Registry.
// Series are sorted by key, so identical registries encode identically
// (encoding/json preserves slice order and struct field order).
type RegistryWire struct {
	Counters []CounterWire   `json:"counters,omitempty"`
	Gauges   []GaugeWire     `json:"gauges,omitempty"`
	Hists    []HistogramWire `json:"histograms,omitempty"`
}

// Wire encodes the registry canonically. A nil registry encodes to nil.
func (r *Registry) Wire() *RegistryWire {
	if r == nil {
		return nil
	}
	w := &RegistryWire{}
	for id, held := range r.counters.held {
		if held {
			w.Counters = append(w.Counters, CounterWire{Key: keyWire(r.ids.counters.keys[id]), Value: r.counters.at[id].n})
		}
	}
	for id, held := range r.gauges.held {
		if g := r.gauges.at[id]; held {
			w.Gauges = append(w.Gauges, GaugeWire{Key: keyWire(r.ids.gauges.keys[id]), Value: g.v, Set: g.set})
		}
	}
	for id, held := range r.hists.held {
		if !held {
			continue
		}
		h := r.hists.at[id]
		hw := HistogramWire{Key: keyWire(r.ids.hists.keys[id]), Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		top := len(h.buckets)
		for top > 0 && h.buckets[top-1] == 0 {
			top--
		}
		if top > 0 {
			hw.Buckets = append([]uint64(nil), h.buckets[:top]...)
		}
		w.Hists = append(w.Hists, hw)
	}
	sort.SliceStable(w.Counters, func(i, j int) bool { return w.Counters[i].Key.Key().less(w.Counters[j].Key.Key()) })
	sort.SliceStable(w.Gauges, func(i, j int) bool { return w.Gauges[i].Key.Key().less(w.Gauges[j].Key.Key()) })
	sort.SliceStable(w.Hists, func(i, j int) bool { return w.Hists[i].Key.Key().less(w.Hists[j].Key.Key()) })
	return w
}

// Registry decodes the wire form into a fresh registry holding exactly
// the encoded series and values. A nil wire decodes to an empty
// registry (so merge sites need no nil checks).
func (w *RegistryWire) Registry() *Registry {
	r := NewRegistry()
	if w == nil {
		return r
	}
	for _, c := range w.Counters {
		r.Counter(c.Key.Key()).n = c.Value
	}
	for _, g := range w.Gauges {
		dst := r.Gauge(g.Key.Key())
		dst.v, dst.set = g.Value, g.Set
	}
	for _, h := range w.Hists {
		dst := r.Histogram(h.Key.Key())
		copy(dst.buckets[:], h.Buckets)
		dst.count, dst.sum, dst.min, dst.max = h.Count, h.Sum, h.Min, h.Max
	}
	return r
}
