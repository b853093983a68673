// Allocation gate for the zero-allocation DES core (see internal/des):
// after the first hyperperiod warms the pools — event slots, recycled
// job records, result backings, latch and snapshot slices — a
// steady-state hyperperiod of fault-free TEM execution must perform no
// heap allocations at all, with telemetry, tracing and hooks off. The
// race detector instruments allocations, so this only runs in non-race
// builds (CI runs it as a separate step).

//go:build !race

package kernel

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/des"
)

// nullEnv discards outputs and reads zero inputs, keeping the
// environment off the allocation profile.
type nullEnv struct{}

func (nullEnv) ReadInput(port uint32) uint32   { return 0 }
func (nullEnv) WriteOutput(port, value uint32) {}

// statsSink keeps the gated Stats result live, as a caller's would be.
var statsSink Stats

func TestWarmHyperperiodZeroAlloc(t *testing.T) {
	sim := des.New()
	k := New(sim, nullEnv{}, Config{})

	high := taskABase(t, adderSrc)
	high.Name = "high"
	if err := k.AddTask(high); err != nil {
		t.Fatal(err)
	}
	lowSrc := strings.Replace(burnSrc, ".org 0x0000", ".org 0x1000", 1)
	low := TaskSpec{
		Name:        "low",
		Program:     cpu.MustAssemble(lowSrc),
		Entry:       "start",
		Period:      2 * des.Millisecond,
		Deadline:    2 * des.Millisecond,
		Priority:    1,
		Criticality: Critical,
		Budget:      300 * des.Microsecond,
		OutputPorts: []uint32{1},
		DataStart:   dataB,
		DataWords:   8,
		StackStart:  stackB,
		StackWords:  64,
	}
	if err := k.AddTask(low); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}

	// Warm-up: several hyperperiods populate every pool and backing.
	const hyperperiod = 2 * des.Millisecond
	target := 10 * hyperperiod
	if err := sim.RunUntil(target); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(10, func() {
		target += hyperperiod
		if err := sim.RunUntil(target); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm TEM hyperperiod: %v allocs per run, want 0", allocs)
	}
	// The fork core reads the counters at every boundary it marks.
	if allocs := testing.AllocsPerRun(10, func() { statsSink = k.Stats() }); allocs != 0 {
		t.Errorf("Stats: %v allocs per call, want 0", allocs)
	}

	// The run must have been doing real work, not idling.
	st := k.Stats()
	if st.Releases == 0 || st.OK == 0 || st.TaskCycles == 0 {
		t.Fatalf("kernel idle during alloc gate: %+v", st)
	}
	if failed, reason := k.Failed(); failed {
		t.Fatalf("node failed during alloc gate: %s", reason)
	}
}
