package kernel

import (
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
)

// TestObsMirrorsKernelStats cross-checks the telemetry counters against
// the kernel's own Stats over a fault-free run: the two accountings are
// produced by different code paths and must agree exactly.
func TestObsMirrorsKernelStats(t *testing.T) {
	sim, _, k, col := buildKernel(t, Config{})
	if err := k.AddTask(taskABase(t, adderSrc)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(3500 * des.Microsecond); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	reg := col.Registry()
	if st.Releases == 0 {
		t.Fatal("no releases in 3.5 ms")
	}
	if got := reg.CounterTotal("events.release"); got != st.Releases {
		t.Errorf("events.release = %d, want %d", got, st.Releases)
	}
	if got := reg.CounterValue(obs.Key{Name: "kernel.outcomes", Task: "taskA", Mechanism: "ok"}); got != st.OK {
		t.Errorf("kernel.outcomes{ok} = %d, want %d", got, st.OK)
	}
	if got := reg.CounterTotal("kernel.task_cycles"); got != st.TaskCycles {
		t.Errorf("kernel.task_cycles = %d, want %d", got, st.TaskCycles)
	}
	if got := reg.CounterTotal("kernel.kernel_cycles"); got != st.KernelCycles {
		t.Errorf("kernel.kernel_cycles = %d, want %d", got, st.KernelCycles)
	}
	// Two copies per fault-free critical release.
	h := reg.Histogram(obs.Key{Name: "kernel.copy_cycles", Task: "taskA"})
	if h.Count() != 2*st.Releases {
		t.Errorf("copy_cycles samples = %d, want %d", h.Count(), 2*st.Releases)
	}
	if h.Min() == 0 || h.Max() < h.Min() {
		t.Errorf("copy_cycles min/max = %d/%d", h.Min(), h.Max())
	}

	if len(eventsOf(col, obs.KindDispatch)) == 0 {
		t.Error("no dispatch events recorded")
	}

	// Release events carry the criticality as detail (the invariant
	// checker keys on it).
	for _, e := range eventsOf(col, obs.KindRelease) {
		if e.Detail != "critical" {
			t.Errorf("release event detail = %q, want critical", e.Detail)
		}
	}
}

// TestObsCountsDetectedErrors corrupts the task state region between
// releases so the data-integrity CRC fires, and checks the detection is
// counted per mechanism in the registry and emitted as a typed event.
func TestObsCountsDetectedErrors(t *testing.T) {
	sim, _, k, col := buildKernel(t, Config{})
	spec := taskABase(t, adderSrc)
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	// After release 0 settles, flip a bit in the committed state region.
	sim.Schedule(500*des.Microsecond, des.PrioInject, func() {
		k.Mem().FlipBit(spec.DataStart, 5)
	})
	if err := sim.RunUntil(1500 * des.Microsecond); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.ErrorsDetected[MechStateCRC] == 0 {
		t.Fatal("state CRC did not fire; test setup broken")
	}
	reg := col.Registry()
	if got := reg.CounterValue(obs.Key{Name: "kernel.errors_detected", Task: "taskA", Mechanism: "state-crc"}); got != st.ErrorsDetected[MechStateCRC] {
		t.Errorf("kernel.errors_detected{state-crc} = %d, want %d",
			got, st.ErrorsDetected[MechStateCRC])
	}
	crcEvents := 0
	for _, e := range col.Events() {
		if e.Kind == obs.KindStateCRCError {
			crcEvents++
		}
	}
	if crcEvents == 0 {
		t.Error("no state-crc-error event emitted")
	}
	// The recovered run must still satisfy the TEM invariants.
	for _, v := range obs.CheckInvariants(col.Events()) {
		t.Errorf("invariant violated after CRC recovery: %v", v)
	}
}

// TestObsNilCollectorIsFreeAndSafe: a kernel without a collector takes
// every telemetry call site through the nil paths.
func TestObsNilCollectorIsSafe(t *testing.T) {
	sim, env := des.New(), newTestEnv()
	k := New(sim, env, Config{})
	if err := k.AddTask(taskABase(t, adderSrc)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(2500 * des.Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(env.writes) == 0 {
		t.Error("no outputs committed without a collector")
	}
}

// TestOutcomeCountsAgreeFailSilent: a fail-silent node turns a detected
// error into an omission of the release, and the kernel's Stats, the
// registry's kernel.outcomes series and the outcome hook must all count
// it once.
func TestOutcomeCountsAgreeFailSilent(t *testing.T) {
	sim, _, k, col := buildKernel(t, Config{FailSilentOnError: true})
	spec := taskABase(t, burnSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	hook := map[Outcome]uint64{}
	k.OnOutcome = func(i OutcomeInfo) { hook[i.Outcome]++ }
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(40*des.Microsecond, des.PrioInject, func() { k.Proc().FlipPC(13) })
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	if failed, _ := k.Failed(); !failed {
		t.Fatal("the PC flip did not silence the node; test setup broken")
	}
	st := k.Stats()
	reg := col.Registry()
	for _, c := range []struct {
		o     Outcome
		stats uint64
	}{
		{OutcomeOK, st.OK}, {OutcomeMasked, st.Masked},
		{OutcomeOmission, st.Omissions}, {OutcomeTaskShutdown, st.TaskShutdowns},
	} {
		metric := reg.CounterValue(obs.Key{Name: "kernel.outcomes", Task: spec.Name, Mechanism: c.o.String()})
		if c.stats != hook[c.o] || metric != hook[c.o] {
			t.Errorf("%v: Stats %d, kernel.outcomes %d, hook %d", c.o, c.stats, metric, hook[c.o])
		}
	}
	if hook[OutcomeOmission] != 1 {
		t.Errorf("hook saw %d omissions, want 1", hook[OutcomeOmission])
	}
}
