package obs

import (
	"fmt"
	"testing"
)

// BenchmarkTelemetryTrialBookkeeping times the registry work one
// telemetry trial of a fork campaign does around its simulation, on the
// shape of a trial's registry (33 counters, a gauge and a histogram):
// the restore's rewind of the slot collector to a checkpoint, the
// composition of the suffix-table entry the trial ends on, and the
// accumulation of the trial's registry into the slot's sibling
// accumulator.
func BenchmarkTelemetryTrialBookkeeping(b *testing.B) {
	c := NewCollector("")
	c.SetEventLimit(-1)
	var counters []*Counter
	for _, band := range bandNames {
		counters = append(counters, c.Counter("des.events_fired", "", band))
	}
	for _, task := range []string{"brake", "steer", "monitor", "log"} {
		for _, name := range []string{"events.release", "events.dispatch", "events.copy_start",
			"events.copy_end", "events.compare_match", "events.commit", "kernel.outcomes"} {
			counters = append(counters, c.Counter(name, task, ""))
		}
	}
	peak, cycles := c.Gauge(PendingPeak, ""), c.Histogram("kernel.copy_cycles", "brake")
	if n := len(c.Registry().Snapshot()); n != 35 {
		b.Fatalf("%d series, want 35", n)
	}
	const marks = 4
	x := NewSuffixes(marks)
	x.Reset(c)
	for m := 0; m < marks; m++ {
		x.Mark(c)
		for i, ctr := range counters {
			ctr.Add(uint64(i + m))
		}
		peak.SetMax(float64(m + 3))
		cycles.Observe(uint64(1000 + 97*m))
	}
	x.End(c)
	entry := x.Cut(2)
	checkpoints := x.Keep()
	acc := c.Registry().Sibling()
	if got := fmt.Sprint(len(entry.counters), len(entry.gauges), len(entry.hists)); got != "33 1 1" {
		b.Fatalf("entry holds %s counter, gauge and histogram deltas, want 33 1 1", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpoints.Rewind(c, 1)
		entry.Compose(c)
		acc.Merge(c.Registry())
	}
}
