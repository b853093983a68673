package obs

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/des"
)

// step is one recorded action on a collector.
type step func(c *Collector)

// suffixRun builds a deterministic, deliberately non-periodic run of
// intervals: histogram samples and gauge values whose extremes move
// both ways over the run, series created mid-run, and a steady event
// stream.
func suffixRun(intervals int) [][]step {
	seed := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) % n
	}
	run := make([][]step, intervals)
	for b := range run {
		for i := 0; i < 6; i++ {
			v := next(1000) + uint64(b)*37
			at := des.Time(b*100 + i)
			task := fmt.Sprintf("t%d", next(3))
			switch next(5) {
			case 0:
				run[b] = append(run[b], func(c *Collector) { c.Counter("ops", task, "").Inc() })
			case 1:
				run[b] = append(run[b], func(c *Collector) { c.Histogram("cycles", "a").Observe(v) })
			case 2:
				run[b] = append(run[b], func(c *Collector) { c.Gauge("depth", "").SetMax(float64(v)) })
			default:
				run[b] = append(run[b], func(c *Collector) { c.Emit(Event{At: at, Kind: KindRelease, Task: task}) })
			}
		}
		if b == intervals/2 {
			// Series born mid-run: a histogram with one extreme sample
			// and a gauge, plus a sample below every earlier one.
			run[b] = append(run[b],
				func(c *Collector) { c.Histogram("late", "").Observe(5) },
				func(c *Collector) { c.Gauge("late", "").SetMax(2) },
				func(c *Collector) { c.Histogram("cycles", "a").Observe(1) })
		}
	}
	// An early spike every later suffix's maximum must exclude.
	run[1] = append(run[1],
		func(c *Collector) { c.Histogram("cycles", "a").Observe(1 << 20) },
		func(c *Collector) { c.Gauge("depth", "").SetMax(1 << 20) })
	return run
}

// suffixCollectors are the collector shapes the recorder is tested on:
// an unlimited, a capped and a metrics-only stream, named by their event
// limit, and an events-only collector, which has no registry.
var suffixCollectors = []struct {
	name   string
	capped bool
	new    func() *Collector
}{
	{"limit=0", false, func() *Collector { return NewCollector("n") }},
	{"limit=5", true, func() *Collector {
		c := NewCollector("n")
		c.SetEventLimit(5)
		return c
	}},
	{"limit=-1", false, func() *Collector {
		c := NewCollector("n")
		c.SetEventLimit(-1)
		return c
	}},
	{"events-only", false, func() *Collector { return NewEventCollector("n") }},
}

// registryOf renders c's registry for comparison (nil without one).
func registryOf(c *Collector) []MetricPoint {
	if c.Registry() == nil {
		return nil
	}
	return c.Registry().Snapshot()
}

// TestSuffixesCompose records a run's suffix telemetry in one pass and
// composes it at every mark onto collectors holding different prefixes
// — the run's own, an empty one, and one with other extremes and events
// — for every shape in suffixCollectors, each with a registry of its own
// (composed by key) and with a sibling of the recorded registry
// (composed by id). Wherever Fits accepts the recorded tail, the
// composed collector must equal one that replayed the prefix and then
// the recorded suffix: registry, events and drop count. Fits must refuse
// only tails the recording's cap cut short. The recorder records the
// run twice on one collector, rewound to the first run's start in
// between as a fork engine's checkpoint rewinds it, so its second run
// finds every series already numbered and the mid-run ones absent until
// they reappear.
func TestSuffixesCompose(t *testing.T) {
	const intervals = 8
	run := suffixRun(intervals)
	prefixes := []struct {
		name  string
		steps func(b int) []step
	}{
		{"own", func(b int) []step {
			var s []step
			for _, iv := range run[:b] {
				s = append(s, iv...)
			}
			return s
		}},
		{"empty", func(int) []step { return nil }},
		{"other", func(int) []step {
			return []step{
				func(c *Collector) { c.Histogram("cycles", "a").Observe(4000) },
				func(c *Collector) { c.Gauge("depth", "").SetMax(1) },
				func(c *Collector) { c.Counter("ops", "x", "").Add(3) },
				func(c *Collector) { c.Emit(Event{At: 1, Kind: KindOmission, Task: "x"}) },
			}
		}},
	}
	for _, shape := range suffixCollectors {
		t.Run(shape.name, func(t *testing.T) {
			newCol := shape.new
			x := NewSuffixes(intervals)
			rec := newCol()
			targets := []struct {
				name string
				new  func() *Collector
			}{
				{"own registry", newCol},
				{"sibling registry", func() *Collector {
					c := newCol()
					if c.reg != nil {
						c.reg = rec.reg.Sibling()
					}
					return c
				}},
			}
			for pass := 0; pass < 2; pass++ {
				if pass > 0 {
					x.Keep().Rewind(rec, 0)
				}
				x.Reset(rec)
				for b := range run {
					x.Mark(rec)
					for _, s := range run[b] {
						s(rec)
					}
				}
				x.End(rec)
				suffixes := make([]*Suffix, intervals)
				for b := range run {
					suffixes[b] = x.Cut(b)
				}
				refused := 0
				for b := range run {
					for _, p := range prefixes {
						for _, target := range targets {
							got, want := target.new(), newCol()
							for _, s := range p.steps(b) {
								s(got)
								s(want)
							}
							for _, iv := range run[b:] {
								for _, s := range iv {
									s(want)
								}
							}
							if !suffixes[b].Fits(got) {
								refused++
								if !shape.capped {
									t.Errorf("pass %d, mark %d, %s prefix, %s: tail refused without a cap", pass, b, p.name, target.name)
								}
								continue
							}
							suffixes[b].Compose(got)
							if g, w := registryOf(got), registryOf(want); !reflect.DeepEqual(g, w) {
								t.Errorf("pass %d, mark %d, %s prefix, %s: registry %v, replayed %v", pass, b, p.name, target.name, g, w)
							}
							if !reflect.DeepEqual(got.Events(), want.Events()) || got.Dropped() != want.Dropped() {
								t.Errorf("pass %d, mark %d, %s prefix, %s: %d events (%d dropped), replayed %d (%d dropped)",
									pass, b, p.name, target.name, len(got.Events()), got.Dropped(), len(want.Events()), want.Dropped())
							}
						}
					}
				}
				if shape.capped && refused == 0 {
					t.Error("the cap never cut a tail short; the case exercises nothing")
				}
				plain := newCol()
				for _, iv := range run {
					for _, s := range iv {
						s(plain)
					}
				}
				if !reflect.DeepEqual(registryOf(rec), registryOf(plain)) {
					t.Error("recording changed the run's own registry")
				}
			}
		})
	}
}

// TestSuffixesShiftGauge pins ShiftGauge: it offsets the named gauge's
// recorded suffix maxima only.
func TestSuffixesShiftGauge(t *testing.T) {
	c := NewCollector("")
	x := NewSuffixes(2)
	x.Reset(c)
	for b := 0; b < 2; b++ {
		x.Mark(c)
		c.Gauge("peak", "").SetMax(float64(10 - b))
		c.Gauge("other", "").SetMax(float64(10 - b))
	}
	x.End(c)
	x.ShiftGauge("peak", -1)
	s := x.Cut(1)
	got := NewCollector("")
	s.Compose(got)
	if v := got.Gauge("peak", "").Value(); v != 8 {
		t.Errorf("shifted gauge composed to %v, want 8", v)
	}
	if v := got.Gauge("other", "").Value(); v != 9 {
		t.Errorf("unshifted gauge composed to %v, want 9", v)
	}
}

// TestSuffixesRewind checks the checkpoint path: after a recorded run
// (marked at its start and at every boundary), rewinding the run's own
// collector to any mark — from its end, then from another mark — leaves
// exactly what a plain replay of the run up to that boundary holds:
// registry, events and drop count, for every shape in
// suffixCollectors. Series the recorder never saw go too.
func TestSuffixesRewind(t *testing.T) {
	const intervals = 6
	run := suffixRun(intervals)
	for _, shape := range suffixCollectors {
		newCol := shape.new
		c := newCol()
		x := NewSuffixes(intervals)
		x.Reset(c)
		for _, iv := range run {
			x.Mark(c)
			for _, s := range iv {
				s(c)
			}
		}
		x.End(c)
		for _, b := range []int{intervals - 1, 0, 3, 3, 1} {
			c.Counter("stray", "", "").Inc()
			c.Histogram("stray", "").Observe(9)
			x.Rewind(c, b)
			want := newCol()
			for _, iv := range run[:b] {
				for _, s := range iv {
					s(want)
				}
			}
			if g, w := registryOf(c), registryOf(want); !reflect.DeepEqual(g, w) {
				t.Errorf("%s, mark %d: registry %v, replayed %v", shape.name, b, g, w)
			}
			if got := c.Events(); len(got) != len(want.Events()) || len(got) > 0 && !reflect.DeepEqual(got, want.Events()) ||
				c.Dropped() != want.Dropped() {
				t.Errorf("%s, mark %d: %d events (%d dropped), replayed %d (%d dropped)",
					shape.name, b, len(c.Events()), c.Dropped(), len(want.Events()), want.Dropped())
			}
		}
	}
}

// TestRewindKeepsLabeledViewCounting: a labeled view caches its events.*
// counters like the collector it labels, and a rewind of that collector
// must leave the view counting into the registry. The view emits once
// after the run's only mark, the collector rewinds to the mark, and the
// same emission again must count as on a fresh collector.
func TestRewindKeepsLabeledViewCounting(t *testing.T) {
	c := NewCollector("")
	v := c.Labeled("n")
	x := NewSuffixes(1)
	x.Reset(c)
	x.Mark(c)
	v.Emit(Event{Kind: KindRelease, Task: "a"})
	x.End(c)
	x.Keep().Rewind(c, 0)
	v.Emit(Event{Kind: KindRelease, Task: "a"})
	fresh := NewCollector("")
	fresh.Labeled("n").Emit(Event{Kind: KindRelease, Task: "a"})
	if got, want := c.Registry().Snapshot(), fresh.Registry().Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("after the rewind the view counted %v, a fresh collector %v", got, want)
	}
}
