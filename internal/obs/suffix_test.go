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

// TestSuffixesCompose records a run's suffix telemetry in one pass and
// composes it at every boundary onto collectors holding different
// prefixes — the run's own, an empty one, and one with other extremes
// and events — for an unlimited, a capped and a metrics-only stream.
// Wherever Fits accepts the recorded tail, the composed collector must
// equal one that replayed the prefix and then the recorded suffix:
// registry digest, events and drop count. Fits must refuse only tails
// the recording's cap cut short.
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
	for _, limit := range []int{0, 5, -1} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			newCol := func() *Collector {
				c := NewCollector("n")
				c.SetEventLimit(limit)
				return c
			}
			rec := newCol()
			x := NewSuffixes(intervals)
			states := make([]*CollectorState, intervals)
			for b := range run {
				x.Close(rec)
				states[b] = NewCollectorState()
				rec.Snapshot(states[b])
				x.Open(rec)
				for _, s := range run[b] {
					s(rec)
				}
			}
			x.End(rec)
			refused := 0
			for b := range run {
				for _, p := range prefixes {
					got, want := newCol(), newCol()
					for _, s := range p.steps(b) {
						s(got)
						s(want)
					}
					for _, iv := range run[b:] {
						for _, s := range iv {
							s(want)
						}
					}
					if !x.Fits(got, states[b]) {
						refused++
						if limit <= 0 {
							t.Errorf("boundary %d, %s prefix: tail refused without a cap", b, p.name)
						}
						continue
					}
					x.Compose(got, b, states[b])
					if g, w := got.Registry().Digest(), want.Registry().Digest(); g != w {
						t.Errorf("boundary %d, %s prefix: registry %v, replayed %v", b, p.name,
							got.Registry().Snapshot(), want.Registry().Snapshot())
					}
					if !reflect.DeepEqual(got.Events(), want.Events()) || got.Dropped() != want.Dropped() {
						t.Errorf("boundary %d, %s prefix: %d events (%d dropped), replayed %d (%d dropped)",
							b, p.name, len(got.Events()), got.Dropped(), len(want.Events()), want.Dropped())
					}
				}
			}
			if limit > 0 && refused == 0 {
				t.Error("the cap never cut a tail short; the case exercises nothing")
			}
			plain := newCol()
			for _, iv := range run {
				for _, s := range iv {
					s(plain)
				}
			}
			if rec.Registry().Digest() != plain.Registry().Digest() {
				t.Error("recording changed the run's own registry")
			}
		})
	}
}

// TestSuffixesShiftGauge pins ShiftGauge: it offsets the named gauge's
// recorded suffix maxima only.
func TestSuffixesShiftGauge(t *testing.T) {
	c := NewCollector("")
	x := NewSuffixes(2)
	var states [2]*CollectorState
	for b := range states {
		x.Close(c)
		states[b] = NewCollectorState()
		c.Snapshot(states[b])
		x.Open(c)
		c.Gauge("peak", "").SetMax(float64(10 - b))
		c.Gauge("other", "").SetMax(float64(10 - b))
	}
	x.End(c)
	x.ShiftGauge("peak", -1)
	got := NewCollector("")
	x.Compose(got, 1, states[1])
	if v := got.Gauge("peak", "").Value(); v != 8 {
		t.Errorf("shifted gauge composed to %v, want 8", v)
	}
	if v := got.Gauge("other", "").Value(); v != 9 {
		t.Errorf("unshifted gauge composed to %v, want 9", v)
	}
}
