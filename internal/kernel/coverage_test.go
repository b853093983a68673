package kernel

import (
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
)

// TestDeadlineFiresMidExecution: a task whose fault-free execution
// cannot fit its deadline is cut off by the deadline monitor itself
// (not by the recovery-time check).
func TestDeadlineFiresMidExecution(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{PermanentThreshold: 100})
	spec := taskABase(t, burnSrc) // ~80 µs per copy; two copies ≈ 165 µs
	spec.InputPorts = nil
	spec.Deadline = 150 * des.Microsecond
	spec.Budget = 120 * des.Microsecond
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Omissions != 1 || st.OK != 0 {
		t.Fatalf("stats = %+v", st)
	}
	om := eventsOf(col, obs.KindOmission)
	if len(om) != 1 || !strings.Contains(om[0].Detail, "deadline") {
		t.Errorf("omission events = %v", om)
	}
	if len(env.writes) != 0 {
		t.Errorf("writes = %v", env.writes)
	}
}

// yieldSrc interleaves cooperative yields with computation.
const yieldSrc = `
	.org 0x0000
start:
	movi r5, 10
	movi r6, 0
loop:
	add r6, r6, r5
	sys 1              ; yield
	addi r5, r5, -1
	cmpi r5, 0
	bgt loop
	li r1, 0xFFFF0000
	st r6, [r1+4]
	sys 2
`

// TestSysYieldContinuesExecution: SYS yield relinquishes the CPU but the
// copy resumes and completes with the right result (sum 1..10 = 55).
func TestSysYield(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{})
	spec := taskABase(t, yieldSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	if len(env.writes) != 1 || env.writes[0].value != 55 {
		t.Fatalf("writes = %v", env.writes)
	}
	if k.Stats().OK != 1 {
		t.Errorf("stats = %+v", k.Stats())
	}
}

// TestStringersNamed covers the enum String methods, including unknowns.
func TestStringersNamed(t *testing.T) {
	for _, a := range []Activity{ActivityIdle, ActivityTask, ActivityKernel, Activity(9)} {
		if a.String() == "" {
			t.Errorf("Activity(%d) unnamed", int(a))
		}
	}
	for _, c := range []Criticality{NonCritical, Critical, Criticality(9)} {
		if c.String() == "" {
			t.Errorf("Criticality(%d) unnamed", int(c))
		}
	}
	for _, o := range []Outcome{OutcomeOK, OutcomeMasked, OutcomeOmission,
		OutcomeTaskShutdown, Outcome(9)} {
		if o.String() == "" {
			t.Errorf("Outcome(%d) unnamed", int(o))
		}
	}
}

// TestCurrentTaskProbe covers the running-task observer.
func TestCurrentTaskProbe(t *testing.T) {
	sim, _, k, _ := buildKernel(t, Config{})
	spec := taskABase(t, burnSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if k.CurrentTask() != "" {
		t.Error("task running before simulation")
	}
	var during string
	sim.Schedule(50*des.Microsecond, des.PrioObserver, func() { during = k.CurrentTask() })
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	if during != "taskA" {
		t.Errorf("current task mid-copy = %q", during)
	}
}

// TestUndeclaredInputPortIsBusError: reading a port outside the latch is
// a bus error, detected like any other EDM trap.
func TestUndeclaredInputPortIsBusError(t *testing.T) {
	sim, _, k, _ := buildKernel(t, Config{PermanentThreshold: 100})
	spec := taskABase(t, adderSrc)
	spec.InputPorts = nil // program still reads port 0
	spec.Deadline = 300 * des.Microsecond
	spec.Budget = 50 * des.Microsecond
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	if k.Stats().ErrorsDetected[MechBusError] == 0 {
		t.Errorf("mechanisms = %v", k.Stats().ErrorsDetected)
	}
}
