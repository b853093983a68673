package nlft

// Benchmarks for the exhaustive single-fault verifier. Running
//
//	BENCH_EXHAUST_JSON=BENCH_exhaust.json go test -run=NONE -bench=ExhaustVerify .
//
// writes the measured numbers to the named file; without the variable
// the benchmarks only report metrics. The committed BENCH_exhaust.json
// records what the visited-digest dedup buys over fork-only
// exploration on the full default space (every target, 50µs grid, ~30k
// placements; its no-dedup and from-scratch points predate the removal
// of those verifier modes); the verifier's results are pinned to the
// from-scratch oracle (TestVerifyDifferential in internal/exhaust).

import (
	"sync"
	"testing"

	"repro/internal/benchjson"
	"repro/internal/exhaust"
	"repro/internal/fault"
)

type exhaustBenchPoint struct {
	// Mode is "dedup" (fork + convergence + visited-digest memo table)
	// or "campaign" (planned sampling campaign over the identical fault
	// list — the cross-check baseline).
	Mode             string  `json:"mode"`
	Placements       int     `json:"placements"`
	NsPerOp          float64 `json:"ns_per_op"`
	PlacementsPerSec float64 `json:"placements_per_sec"`
}

// benchExhaustOut accumulates results so TestMain
// (bench_parallel_test.go, the package's single TestMain) can emit
// them as one JSON document.
var benchExhaustOut struct {
	mu     sync.Mutex
	Points []exhaustBenchPoint
}

type benchExhaustDoc struct {
	benchjson.Header
	Points []exhaustBenchPoint `json:"exhaust_verify,omitempty"`
}

// exhaustBenchConfig is the benchmarked space: the gate
// configuration's full default grid (every target, 50µs quantum,
// ~30k placements) — the space `cmd/exhaustcheck` verifies in CI, and
// the regime the visited-digest memo table is built for (on small
// restricted spaces convergence alone already cuts every suffix and
// the memo bookkeeping is pure overhead).
func exhaustBenchConfig() exhaust.Config {
	return exhaust.Config{
		Quantum:     exhaust.DefaultQuantum,
		Parallelism: 1,
	}
}

// BenchmarkExhaustVerify contrasts the verifier (visited-digest dedup on
// top of fork+convergence) with the planned sampling campaign the
// cross-check runs over the same fault list.
func BenchmarkExhaustVerify(b *testing.B) {
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true, Periods: 3, Compute: 16})
	spaceCfg := exhaustBenchConfig()
	space, err := exhaust.NewSpace(w, &spaceCfg)
	if err != nil {
		b.Fatal(err)
	}
	placements := space.Len()

	record := func(mode string, ns float64) {
		pt := exhaustBenchPoint{
			Mode:             mode,
			Placements:       placements,
			NsPerOp:          ns,
			PlacementsPerSec: float64(placements) / (ns / 1e9),
		}
		benchExhaustOut.mu.Lock()
		replaced := false
		for i := range benchExhaustOut.Points {
			if benchExhaustOut.Points[i].Mode == mode {
				benchExhaustOut.Points[i] = pt
				replaced = true
			}
		}
		if !replaced {
			benchExhaustOut.Points = append(benchExhaustOut.Points, pt)
		}
		benchExhaustOut.mu.Unlock()
	}

	b.Run("dedup", func(b *testing.B) {
		cfg := exhaustBenchConfig()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := exhaust.Verify(w, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(placements)/(ns/1e9), "placements/s")
		record("dedup", ns)
	})

	b.Run("campaign", func(b *testing.B) {
		plan := space.Faults()
		cfg := fault.CampaignConfig{Plan: plan, Parallelism: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fault.Run(w, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(placements)/(ns/1e9), "placements/s")
		record("campaign", ns)
	})
}

// emitBenchExhaust marshals the accumulated points and returns the
// document (nil if nothing ran). Called from TestMain.
func emitBenchExhaust() *benchExhaustDoc {
	benchExhaustOut.mu.Lock()
	defer benchExhaustOut.mu.Unlock()
	if len(benchExhaustOut.Points) == 0 {
		return nil
	}
	return &benchExhaustDoc{
		Header: benchjson.NewHeader(),
		Points: benchExhaustOut.Points,
	}
}
