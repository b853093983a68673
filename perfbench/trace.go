package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one op share Op; probe
// spans carry Op -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span's call enters: the name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so op code is written once.
// Sharded workers record from several goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rename relabels a finished span, for calls whose kind is known only
// after they return (a worker's RunOne that found no lease).
func (t *tracer) rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// setOp tags the spans that follow with an op id.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the durations of its
// direct children. Children of one span run on one goroutine, one after
// another, so their durations never overlap.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// durations lists the durations (ns) of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfOf lists the self times (ns) of every span called name.
func (t *tracer) selfOf(name string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i]))
		}
	}
	return out
}

// layerSelf sums self time per layer over the spans of traced ops
// (Op >= 0), in milliseconds per op.
func (t *tracer) layerSelf(ops int) map[string]float64 {
	self := t.selfTimes()
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.Op >= 0 {
			out[s.layer()] += float64(self[i]) / 1e6 / float64(ops)
		}
	}
	return out
}

// printSummary prints each layer's self time per traced op, then each
// span name's call count, median duration and total self time.
func (t *tracer) printSummary(ops int) {
	ls := t.layerSelf(ops)
	for _, n := range sortedKeys(ls) {
		fmt.Printf("self %-8s %.4f ms/op (traced ops=%d)\n", n, ls[n], ops)
	}
	self := t.selfTimes()
	byName := map[string][]float64{}
	selfSum := map[string]float64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
		selfSum[s.Name] += float64(self[i])
	}
	for _, n := range sortedKeys(byName) {
		fmt.Printf("span %-26s calls=%-6d p50=%.3fus self_total=%.3fms\n",
			n, len(byName[n]), median(byName[n])/1e3, selfSum[n]/1e6)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
