package kernel

import (
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
)

// TestAblationAlwaysTriple: unconditional triple execution commits the
// same results but burns ~50% more task cycles than third-copy-on-demand.
func TestAblationAlwaysTriple(t *testing.T) {
	run := func(always bool) (Stats, []portWrite) {
		sim, env, k, _ := buildKernel(t, Config{AlwaysTriple: always})
		spec := taskABase(t, burnSrc)
		spec.InputPorts = nil
		spec.Budget = 200 * des.Microsecond
		if err := k.AddTask(spec); err != nil {
			t.Fatal(err)
		}
		if err := k.Start(); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunUntil(4*des.Millisecond + des.Millisecond/2); err != nil {
			t.Fatal(err)
		}
		return k.Stats(), env.writes
	}
	onDemand, wOD := run(false)
	triple, wT := run(true)
	if len(wOD) != len(wT) || len(wOD) == 0 {
		t.Fatalf("deliveries differ: %d vs %d", len(wOD), len(wT))
	}
	for i := range wOD {
		if wOD[i] != wT[i] {
			t.Fatalf("results diverge at %d", i)
		}
	}
	ratio := float64(triple.TaskCycles) / float64(onDemand.TaskCycles)
	if ratio < 1.4 || ratio > 1.6 {
		t.Errorf("triple/on-demand cycle ratio = %v, want ≈1.5", ratio)
	}
	if triple.OK != onDemand.OK {
		t.Errorf("outcomes differ: %+v vs %+v", triple, onDemand)
	}
}

// TestAblationAlwaysTripleMasksWithVote: with unconditional TMR a fault
// in one copy is outvoted.
func TestAblationAlwaysTripleMasksWithVote(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{AlwaysTriple: true})
	spec := taskABase(t, burnSrc)
	spec.InputPorts = nil
	spec.Budget = 200 * des.Microsecond
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(120*des.Microsecond, des.PrioInject, func() {
		k.Proc().FlipRegister(6, 5)
	})
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	if k.Stats().Masked != 1 {
		t.Fatalf("stats = %+v", k.Stats())
	}
	if len(env.writes) != 1 || env.writes[0].value != 500500 {
		t.Errorf("writes = %v", env.writes)
	}
	if n := len(eventsOf(col, obs.KindVote)); n != 1 {
		t.Errorf("votes = %d", n)
	}
}

// TestAblationNoContextRestore: without the TCB context restore, an
// EDM-detected error is not recoverable — the corrupted context keeps
// failing and the release ends in an omission, where the restoring
// kernel masks the same fault.
func TestAblationNoContextRestore(t *testing.T) {
	run := func(noRestore bool) Stats {
		sim, _, k, _ := buildKernel(t, Config{
			NoContextRestore:   noRestore,
			PermanentThreshold: 100,
		})
		spec := taskABase(t, burnSrc)
		spec.InputPorts = nil
		spec.Budget = 150 * des.Microsecond
		if err := k.AddTask(spec); err != nil {
			t.Fatal(err)
		}
		if err := k.Start(); err != nil {
			t.Fatal(err)
		}
		sim.Schedule(40*des.Microsecond, des.PrioInject, func() {
			k.Proc().FlipPC(13) // lands in zeroed memory → illegal opcode
		})
		if err := sim.RunUntil(des.Millisecond); err != nil {
			t.Fatal(err)
		}
		return k.Stats()
	}
	restored := run(false)
	if restored.Masked != 1 {
		t.Fatalf("restoring kernel: %+v", restored)
	}
	broken := run(true)
	if broken.Masked != 0 || broken.Omissions == 0 {
		t.Errorf("no-restore kernel should fail the release: %+v", broken)
	}
}

// TestAblationCompareOutputsOnly: the reduced comparison scope accepts
// copies that differ only in state image or control-flow signature —
// exactly the divergences §2.6/§2.7 argue must be compared too.
func TestAblationCompareOutputsOnly(t *testing.T) {
	full := New(des.New(), newTestEnv(), Config{})
	reduced := New(des.New(), newTestEnv(), Config{CompareOutputsOnly: true})

	base := copyResult{
		writes:    []portWrite{{port: 1, value: 42}},
		dataImage: []uint32{7, 8},
		signature: 0xABCD,
	}
	stateDiff := base
	stateDiff.dataImage = []uint32{7, 9}
	sigDiff := base
	sigDiff.signature = 0xDEAD
	outDiff := base
	outDiff.writes = []portWrite{{port: 1, value: 43}}

	if full.resultsEqual(&base, &stateDiff) {
		t.Error("full scope missed a state divergence")
	}
	if full.resultsEqual(&base, &sigDiff) {
		t.Error("full scope missed a signature divergence")
	}
	if !reduced.resultsEqual(&base, &stateDiff) {
		t.Error("outputs-only scope should accept a state divergence")
	}
	if !reduced.resultsEqual(&base, &sigDiff) {
		t.Error("outputs-only scope should accept a signature divergence")
	}
	if reduced.resultsEqual(&base, &outDiff) {
		t.Error("outputs-only scope missed an output divergence")
	}
}
