package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// buildWireTestRegistry exercises every series shape the wire encoding
// must preserve: counters, set and zero-valued gauges, histograms with
// samples, and a zero-count histogram series (created but never
// observed — it still appears in Snapshot/Digest, so losing it on the
// wire would change the digest).
func buildWireTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter(Key{Name: "tem_errors", Node: "n1", Mechanism: "ecc"}).Add(17)
	r.Counter(Key{Name: "tem_errors", Node: "n2", Mechanism: "tem"}).Add(3)
	r.Counter(Key{Name: "trials"}).Inc()
	r.Gauge(Key{Name: "slack_min", Node: "n1"}).Set(0) // set-but-zero: Set flag must survive
	r.Gauge(Key{Name: "util_peak", Node: "n2", Task: "wheel"}).SetMax(0.83)
	h := r.Histogram(Key{Name: "detect_latency", Node: "n1"})
	for _, v := range []uint64{0, 1, 7, 4096, 1 << 40} {
		h.Observe(v)
	}
	r.Histogram(Key{Name: "repair_latency", Node: "n1"}) // zero-count series
	return r
}

func TestRegistryWireRoundTrip(t *testing.T) {
	r := buildWireTestRegistry()
	got := r.Wire().Registry()

	if g, w := got.Digest(), r.Digest(); g != w {
		t.Fatalf("round-trip digest = %#x, want %#x", g, w)
	}
	// Digest hashes summarized rows; also compare the full internal
	// state so bucket vectors (which the digest cannot see) round-trip.
	if g, w := stateOf(got), stateOf(r); !reflect.DeepEqual(g, w) {
		t.Fatalf("round trip holds %+v, want %+v", g, w)
	}
}

// TestRegistryWireMergeEquivalence is the property the sharded
// orchestrator depends on: merging wire-decoded shard registries in any
// arrival order reproduces the serial merge bit-for-bit.
func TestRegistryWireMergeEquivalence(t *testing.T) {
	a, b := buildWireTestRegistry(), NewRegistry()
	b.Counter(Key{Name: "tem_errors", Node: "n1", Mechanism: "ecc"}).Add(5)
	b.Gauge(Key{Name: "util_peak", Node: "n2", Task: "wheel"}).SetMax(0.91)
	b.Histogram(Key{Name: "detect_latency", Node: "n1"}).Observe(99)

	serial := NewRegistry()
	serial.Merge(a)
	serial.Merge(b)

	for _, order := range [][2]*Registry{{a, b}, {b, a}} {
		merged := NewRegistry()
		for _, src := range order {
			merged.Merge(src.Wire().Registry())
		}
		if g, w := merged.Digest(), serial.Digest(); g != w {
			t.Fatalf("wire-decoded merge digest = %#x, want %#x", g, w)
		}
	}
}

// TestRegistryWireCanonicalJSON: identical registries built in
// different insertion orders must encode to identical bytes — the
// coordinator relies on this to treat spec/registry JSON as canonical.
func TestRegistryWireCanonicalJSON(t *testing.T) {
	a := buildWireTestRegistry()
	b := NewRegistry()
	// Same series, reverse insertion order.
	b.Histogram(Key{Name: "repair_latency", Node: "n1"})
	h := b.Histogram(Key{Name: "detect_latency", Node: "n1"})
	for _, v := range []uint64{0, 1, 7, 4096, 1 << 40} {
		h.Observe(v)
	}
	b.Gauge(Key{Name: "util_peak", Node: "n2", Task: "wheel"}).SetMax(0.83)
	b.Gauge(Key{Name: "slack_min", Node: "n1"}).Set(0)
	b.Counter(Key{Name: "trials"}).Inc()
	b.Counter(Key{Name: "tem_errors", Node: "n2", Mechanism: "tem"}).Add(3)
	b.Counter(Key{Name: "tem_errors", Node: "n1", Mechanism: "ecc"}).Add(17)

	ja, err := json.Marshal(a.Wire())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("wire JSON not canonical:\n%s\n%s", ja, jb)
	}

	var decoded RegistryWire
	if err := json.Unmarshal(ja, &decoded); err != nil {
		t.Fatal(err)
	}
	if g, w := decoded.Registry().Digest(), a.Digest(); g != w {
		t.Fatalf("JSON round-trip digest = %#x, want %#x", g, w)
	}
}

func TestRegistryWireNil(t *testing.T) {
	var r *Registry
	if r.Wire() != nil {
		t.Fatal("nil registry should encode to nil wire")
	}
	var w *RegistryWire
	dec := w.Registry()
	if dec == nil || len(dec.Snapshot()) != 0 {
		t.Fatal("nil wire should decode to an empty registry")
	}
}
