package kernel

// In-package tests for the checkpoint half of the fork engine:
// Snapshot/Restore must rewind the complete mutable kernel state, and
// ForwardDigest must be a pure function of that state, so a restored
// kernel replays the exact golden future. The cross-package contract
// (splice classification, convergence cutoff) lives in internal/fault;
// these tests pin the kernel-local invariants directly.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/obs"
)

// checkpointed captures one instant of a run: simulator + kernel state,
// the forward digest, and the environment-visible prefix length (the
// collector's telemetry is the recorder's mark at the same instant).
type checkpointed struct {
	at     des.Time
	sim    des.SimState
	kern   KernelState
	digest uint64
	writes int
}

// buildPreemptive wires the TestPreemption workload: a long burn task
// preempted every 100 µs by a short adder, so most instants catch a
// started job with in-flight context — the deepest Snapshot/jobDigest
// paths.
func buildPreemptive(t *testing.T) (*des.Simulator, *testEnv, *Kernel, *obs.Collector) {
	t.Helper()
	sim, env, k, col := buildKernel(t, Config{UseMMU: true, ECC: true})
	long := taskABase(t, burnSrc)
	long.Name = "long"
	long.InputPorts = nil
	long.Priority = 1
	long.Budget = 200 * des.Microsecond
	long.Period = 2 * des.Millisecond
	long.Deadline = 2 * des.Millisecond
	if err := k.AddTask(long); err != nil {
		t.Fatal(err)
	}
	short := TaskSpec{
		Name:        "short",
		Program:     cpu.MustAssemble(strings.Replace(adderSrc, ".org 0x0000", ".org 0x1000", 1)),
		Entry:       "start",
		Period:      100 * des.Microsecond,
		Deadline:    100 * des.Microsecond,
		Offset:      30 * des.Microsecond,
		Priority:    9,
		Criticality: Critical,
		Budget:      20 * des.Microsecond,
		InputPorts:  []uint32{0},
		OutputPorts: []uint32{1},
		StackStart:  stackB,
		StackWords:  64,
	}
	env.inputs[0] = 10
	if err := k.AddTask(short); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	return sim, env, k, col
}

// TestSnapshotRestoreReplay is the golden-replay contract: capture
// checkpoints during a fault-free run, then restore each one and re-run
// to the horizon. Every replay must reproduce the golden run exactly —
// same environment writes, same event stream, same final forward digest.
// The collector sits outside the kernel's state boundary, so it is
// rewound alongside the kernel, as the fork engine does.
func TestSnapshotRestoreReplay(t *testing.T) {
	const horizon = 2 * des.Millisecond
	sim, env, k, col := buildPreemptive(t)

	// Checkpoint instants: before the first event, mid-preemption burst,
	// between releases, and deep into the second burn release.
	instants := []des.Time{0, 45 * des.Microsecond, 640 * des.Microsecond, 1200 * des.Microsecond}
	var cps []*checkpointed
	tel := obs.NewSuffixes(len(instants))
	tel.Reset(col)
	for _, at := range instants {
		if at > 0 {
			if err := sim.RunUntil(at); err != nil {
				t.Fatal(err)
			}
		}
		cp := &checkpointed{at: at, writes: len(env.writes)}
		sim.Snapshot(&cp.sim)
		k.Snapshot(&cp.kern)
		tel.Mark(col)
		cp.digest = k.ForwardDigest(des.Event{})
		if cp.kern.Failed() {
			t.Fatalf("checkpoint %v: failed at capture", at)
		}
		cps = append(cps, cp)
	}
	// The committed-slice horizon is monotone over the capture run —
	// the fork engine's checkpoint-selection rule depends on it.
	for i := 1; i < len(cps); i++ {
		if cps[i].kern.CPUBusyUntil() < cps[i-1].kern.CPUBusyUntil() {
			t.Errorf("CPUBusyUntil not monotone: %v then %v",
				cps[i-1].kern.CPUBusyUntil(), cps[i].kern.CPUBusyUntil())
		}
	}

	if err := sim.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	tel.End(col)
	goldenDigest := k.ForwardDigest(des.Event{})
	goldenWrites := append([]portWrite(nil), env.writes...)
	goldenEvents := slices.Clone(col.Events())
	goldenMetrics := col.Registry().Digest()
	if len(goldenWrites) == 0 {
		t.Fatal("golden run produced no writes")
	}

	for i, cp := range cps {
		sim.Restore(&cp.sim)
		k.Restore(&cp.kern)
		tel.Rewind(col, i)
		if got := k.ForwardDigest(des.Event{}); got != cp.digest {
			t.Errorf("checkpoint %v: digest after restore %#x, want %#x", cp.at, got, cp.digest)
		}
		// The environment is outside the kernel's state boundary; the
		// campaign recorder handles it separately. Rewind it by hand.
		env.writes = env.writes[:cp.writes]
		if err := sim.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		if got := k.ForwardDigest(des.Event{}); got != goldenDigest {
			t.Errorf("checkpoint %v: replay digest %#x, want %#x", cp.at, got, goldenDigest)
		}
		if len(env.writes) != len(goldenWrites) {
			t.Fatalf("checkpoint %v: %d writes, want %d", cp.at, len(env.writes), len(goldenWrites))
		}
		for i, w := range env.writes {
			if w != goldenWrites[i] {
				t.Fatalf("checkpoint %v: write %d = %+v, want %+v", cp.at, i, w, goldenWrites[i])
			}
		}
		if !slices.Equal(col.Events(), goldenEvents) {
			t.Errorf("checkpoint %v: replayed event stream differs from the golden one (%d events, want %d)",
				cp.at, len(col.Events()), len(goldenEvents))
		}
		if got := col.Registry().Digest(); got != goldenMetrics {
			t.Errorf("checkpoint %v: replay metrics digest %#x, want %#x", cp.at, got, goldenMetrics)
		}
	}
}

// TestRestoreParksPostCaptureJobs: restoring a checkpoint captured
// before any release must park every job record born after the capture
// on the free list, keeping the pool bounded across forks.
func TestRestoreParksPostCaptureJobs(t *testing.T) {
	const horizon = des.Millisecond
	sim, env, k, _ := buildPreemptive(t)

	var cp checkpointed
	sim.Snapshot(&cp.sim)
	k.Snapshot(&cp.kern) // t=0: no task has a job yet
	cp.digest = k.ForwardDigest(des.Event{})

	if err := sim.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	first := k.ForwardDigest(des.Event{})

	for round := 0; round < 3; round++ {
		sim.Restore(&cp.sim)
		k.Restore(&cp.kern)
		env.writes = env.writes[:0]
		if got := k.ForwardDigest(des.Event{}); got != cp.digest {
			t.Fatalf("round %d: digest after restore %#x, want %#x", round, got, cp.digest)
		}
		if err := sim.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		if got := k.ForwardDigest(des.Event{}); got != first {
			t.Errorf("round %d: replay digest %#x, want %#x", round, got, first)
		}
	}
	// Every record allocated across the replays was re-parked: the pool
	// holds exactly what one run needs.
	for _, tc := range k.order {
		if len(tc.allJobs) > 3 {
			t.Errorf("task %s: job pool grew to %d records", tc.spec.Name, len(tc.allJobs))
		}
	}
}

// TestSnapshotCapturesFailure: the fail-silent bit and its digest
// contribution survive a snapshot/restore cycle.
func TestSnapshotCapturesFailure(t *testing.T) {
	sim, _, k, _ := buildPreemptive(t)
	if err := sim.RunUntil(100 * des.Microsecond); err != nil {
		t.Fatal(err)
	}
	var healthy checkpointed
	sim.Snapshot(&healthy.sim)
	k.Snapshot(&healthy.kern)
	healthy.digest = k.ForwardDigest(des.Event{})

	k.ForceFailSilent("test: injected failure")
	var failed KernelState
	k.Snapshot(&failed)
	if !failed.Failed() {
		t.Error("failure not captured")
	}
	failedDigest := k.ForwardDigest(des.Event{})
	if failedDigest == healthy.digest {
		t.Error("failure did not change the forward digest")
	}

	sim.Restore(&healthy.sim)
	k.Restore(&healthy.kern)
	if f, _ := k.Failed(); f {
		t.Error("restore did not clear the failure")
	}
	if got := k.ForwardDigest(des.Event{}); got != healthy.digest {
		t.Errorf("digest after restore %#x, want %#x", got, healthy.digest)
	}

	k.Restore(&failed)
	if f, reason := k.Failed(); !f || !strings.Contains(reason, "injected") {
		t.Errorf("restore of failed state: %v %q", f, reason)
	}
	if got := k.ForwardDigest(des.Event{}); got != failedDigest {
		t.Errorf("digest after failed restore %#x, want %#x", got, failedDigest)
	}
}
