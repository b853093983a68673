package nlft

// Benchmarks for the checkpoint/fork campaign engine. Running
//
//	BENCH_FORK_JSON=BENCH_fork.json go test -run=NONE -bench=CampaignFork .
//
// writes the measured numbers to the named file; without the variable
// the benchmarks only report metrics. The committed BENCH_fork.json
// records the fork engine's throughput on the standard workload (its
// rebuild-per-trial points predate the removal of the from-scratch
// campaign mode).

import (
	"sync"
	"testing"

	"repro/internal/benchjson"
	"repro/internal/des"
	"repro/internal/fault"
)

type forkBenchPoint struct {
	Mode      string `json:"mode"` // always "fork"
	Telemetry bool   `json:"telemetry"`
	// IntervalNs is the checkpoint spacing (0 = workload default).
	IntervalNs   int64   `json:"interval_ns,omitempty"`
	Trials       int     `json:"trials"`
	Workers      int     `json:"workers"`
	NsPerOp      float64 `json:"ns_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec"`
}

// benchForkOut accumulates results so TestMain (bench_parallel_test.go,
// the package's single TestMain) can emit them as one JSON document.
var benchForkOut struct {
	mu     sync.Mutex
	Points []forkBenchPoint
}

type benchForkDoc struct {
	benchjson.Header
	Points []forkBenchPoint `json:"campaign_fork,omitempty"`
}

// BenchmarkCampaignFork measures the checkpoint/fork engine with and
// without telemetry and sweeps the checkpoint spacing (the default
// interval is 250µs; coarser spacing means longer replayed prefixes,
// finer spacing more restore overhead and — past the convergence
// boundary density — earlier cutoffs). The classify (no-telemetry) mode
// additionally benefits from the convergence cutoff, which stops a
// trial as soon as its state digest matches the golden run's.
func BenchmarkCampaignFork(b *testing.B) {
	const trials = 256
	const workers = 1
	for _, tc := range []struct {
		name      string
		telemetry bool
		interval  int64 // checkpoint spacing in ns; 0 = workload default
	}{
		{"classify/fork", false, 0},
		{"classify/fork-interval-250us", false, 250_000},
		{"classify/fork-interval-4ms", false, 4_000_000},
		{"telemetry/fork", true, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w := fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true})
			cfg := fault.CampaignConfig{Trials: trials, Seed: 42,
				Parallelism: workers, Telemetry: tc.telemetry,
				SnapshotInterval: des.Time(tc.interval)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fault.Run(w, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(trials)/(ns/1e9), "trials/s")
			pt := forkBenchPoint{
				Mode:         "fork",
				Telemetry:    tc.telemetry,
				IntervalNs:   tc.interval,
				Trials:       trials,
				Workers:      workers,
				NsPerOp:      ns,
				TrialsPerSec: float64(trials) / (ns / 1e9),
			}
			// Keep only the final (longest) calibration run per case.
			benchForkOut.mu.Lock()
			replaced := false
			for i := range benchForkOut.Points {
				if benchForkOut.Points[i].Telemetry == tc.telemetry &&
					benchForkOut.Points[i].IntervalNs == tc.interval {
					benchForkOut.Points[i] = pt
					replaced = true
				}
			}
			if !replaced {
				benchForkOut.Points = append(benchForkOut.Points, pt)
			}
			benchForkOut.mu.Unlock()
		})
	}
}

// emitBenchFork marshals the accumulated fork benchmark points and
// returns the document (nil if nothing ran). Called from TestMain.
func emitBenchFork() *benchForkDoc {
	benchForkOut.mu.Lock()
	defer benchForkOut.mu.Unlock()
	if len(benchForkOut.Points) == 0 {
		return nil
	}
	return &benchForkDoc{
		Header: benchjson.NewHeader(),
		Points: benchForkOut.Points,
	}
}
