package kernel

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/obs"
)

// sporadicSpec is an adder task released on demand.
func sporadicSpec(t *testing.T) TaskSpec {
	t.Helper()
	spec := taskABase(t, adderSrc)
	spec.Name = "sporadic"
	spec.Sporadic = true
	spec.Period = 10 * des.Millisecond // minimal inter-arrival
	spec.Deadline = 5 * des.Millisecond
	return spec
}

func TestSporadicNotReleasedAutomatically(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{})
	env.inputs[0] = 1
	if err := k.AddTask(sporadicSpec(t)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(50 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(env.writes) != 0 {
		t.Errorf("sporadic task ran without a trigger: %v", env.writes)
	}
}

func TestSporadicTriggerRuns(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{})
	env.inputs[0] = 37
	if err := k.AddTask(sporadicSpec(t)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(5*des.Millisecond, des.PrioKernel, func() {
		if err := k.Trigger("sporadic"); err != nil {
			t.Error(err)
		}
	})
	if err := sim.RunUntil(20 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(env.writes) != 1 || env.writes[0].value != 42 {
		t.Errorf("writes = %v", env.writes)
	}
	if k.Stats().OK != 1 {
		t.Errorf("stats = %+v", k.Stats())
	}
}

func TestSporadicMinInterArrivalEnforced(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{})
	env.inputs[0] = 1
	if err := k.AddTask(sporadicSpec(t)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	// Three triggers in quick succession: the first fires at 1 ms, the
	// second is deferred to 11 ms (min inter-arrival 10 ms), the third
	// coalesces with the queued one.
	for _, at := range []des.Time{des.Millisecond, 2 * des.Millisecond, 3 * des.Millisecond} {
		at := at
		sim.Schedule(at, des.PrioKernel, func() { _ = k.Trigger("sporadic") })
	}
	if err := sim.RunUntil(30 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(env.writes) != 2 {
		t.Fatalf("writes = %d, want 2 (coalesced)", len(env.writes))
	}
	st := k.Stats()
	if st.Releases != 2 {
		t.Errorf("releases = %d", st.Releases)
	}
}

func TestSporadicTEMMasksFault(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{})
	spec := sporadicSpec(t)
	spec.Program = mustProg(t, burnSrc)
	spec.InputPorts = nil
	spec.Budget = 200 * des.Microsecond
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(des.Millisecond, des.PrioKernel, func() { _ = k.Trigger("sporadic") })
	// Corrupt the accumulator mid-copy-2 of the triggered instance.
	sim.Schedule(des.Millisecond+120*des.Microsecond, des.PrioInject, func() {
		k.Proc().FlipRegister(6, 3)
	})
	if err := sim.RunUntil(10 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Stats().Masked != 1 {
		t.Errorf("stats = %+v", k.Stats())
	}
	if len(env.writes) != 1 || env.writes[0].value != 500500 {
		t.Errorf("writes = %v", env.writes)
	}
	if n := len(eventsOf(col, obs.KindVote)); n != 1 {
		t.Errorf("votes = %d", n)
	}
}

func TestTriggerValidation(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{})
	env.inputs[0] = 1
	periodic := taskABase(t, adderSrc)
	if err := k.AddTask(periodic); err != nil {
		t.Fatal(err)
	}
	if err := k.Trigger("taskA"); err == nil {
		t.Error("Trigger before Start accepted")
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Trigger("nope"); err == nil {
		t.Error("unknown task accepted")
	}
	if err := k.Trigger("taskA"); err == nil {
		t.Error("triggering a periodic task accepted")
	}
	_ = sim
}

// mustProg assembles a source for tests.
func mustProg(t *testing.T, src string) *cpu.Program {
	t.Helper()
	p, err := cpu.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
