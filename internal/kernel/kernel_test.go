package kernel

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/obs"
)

// Test memory layout: code at 0x0000/0x1000, data at 0x8000/0x8400,
// stacks at 0xC000/0xC800.
const (
	codeA  = 0x0000
	codeB  = 0x1000
	dataA  = 0x8000
	dataB  = 0x8400
	stackA = 0xC000
	stackB = 0xC800
)

// adderSrc reads input port 0, adds 5, writes output port 1.
const adderSrc = `
	.org 0x0000
start:
	li r1, 0xFFFF0000
	ld r2, [r1+0]
	addi r2, r2, 5
	st r2, [r1+4]
	sys 2
`

// counterSrc increments a state word and reports it on port 1.
const counterSrc = `
	.org 0x0000
start:
	li r1, 0x8000
	ld r2, [r1]
	addi r2, r2, 1
	st r2, [r1]
	li r3, 0xFFFF0000
	st r2, [r3+4]
	sys 2
`

// burnSrc computes a long accumulation (~1000 iterations, ~4 cycles
// each), then writes the sum to port 1. Register r6 is live for almost
// the whole execution — the fault-injection target.
const burnSrc = `
	.org 0x0000
start:
	movi r5, 1000
	movi r6, 0
loop:
	add r6, r6, r5
	addi r5, r5, -1
	cmpi r5, 0
	bgt loop
	li r1, 0xFFFF0000
	st r6, [r1+4]
	sys 2
`

// spinSrc never terminates: the budget timer must catch it.
const spinSrc = `
	.org 0x0000
start:
	jmp start
`

// wildStoreSrc writes far outside any allowed region.
const wildStoreSrc = `
	.org 0x1000
start:
	li r1, 0x00007000
	st r1, [r1]
	sys 2
`

// sigSrc passes three signature checkpoints.
const sigSrc = `
	.org 0x0000
start:
	sig 1
	sig 2
	sig 3
	li r1, 0xFFFF0000
	movi r2, 9
	st r2, [r1+4]
	sys 2
`

// testEnv is a scripted environment.
type testEnv struct {
	inputs map[uint32]uint32
	// reads counts ReadInput calls per port.
	reads map[uint32]int
	// writes records committed outputs in order.
	writes []portWrite
	// volatileInputs, when set, makes every read return a fresh value —
	// for the input-latching test.
	volatileInputs bool
	counter        uint32
}

func newTestEnv() *testEnv {
	return &testEnv{inputs: make(map[uint32]uint32), reads: make(map[uint32]int)}
}

func (e *testEnv) ReadInput(port uint32) uint32 {
	e.reads[port]++
	if e.volatileInputs {
		e.counter++
		return e.counter
	}
	return e.inputs[port]
}

func (e *testEnv) WriteOutput(port, value uint32) {
	e.writes = append(e.writes, portWrite{port: port, value: value})
}

// taskABase is a template spec for a program at codeA.
func taskABase(t *testing.T, src string) TaskSpec {
	t.Helper()
	prog, err := cpu.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return TaskSpec{
		Name:        "taskA",
		Program:     prog,
		Entry:       "start",
		Period:      des.Millisecond,
		Deadline:    des.Millisecond,
		Priority:    10,
		Criticality: Critical,
		Budget:      200 * des.Microsecond,
		InputPorts:  []uint32{0},
		OutputPorts: []uint32{1},
		DataStart:   dataA,
		DataWords:   16,
		StackStart:  stackA,
		StackWords:  256,
	}
}

// buildKernel wires a simulator, environment and kernel with an
// unlimited collector attached.
func buildKernel(t *testing.T, cfg Config) (*des.Simulator, *testEnv, *Kernel, *obs.Collector) {
	t.Helper()
	sim := des.New()
	env := newTestEnv()
	col := obs.NewCollector("")
	cfg.Obs = col
	k := New(sim, env, cfg)
	return sim, env, k, col
}

// eventsOf returns the collector's events of the given kinds, in order.
func eventsOf(col *obs.Collector, kinds ...obs.Kind) []obs.Event {
	var out []obs.Event
	for _, e := range col.Events() {
		if slices.Contains(kinds, e.Kind) {
			out = append(out, e)
		}
	}
	return out
}

func TestSpecValidation(t *testing.T) {
	prog := cpu.MustAssemble("start: sys 2")
	base := TaskSpec{
		Name: "x", Program: prog, Entry: "start",
		Period: des.Millisecond, Deadline: des.Millisecond,
		Budget: des.Microsecond, Criticality: Critical, StackWords: 16,
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*TaskSpec){
		"no name":        func(s *TaskSpec) { s.Name = "" },
		"nil program":    func(s *TaskSpec) { s.Program = nil },
		"bad entry":      func(s *TaskSpec) { s.Entry = "nope" },
		"zero period":    func(s *TaskSpec) { s.Period = 0 },
		"deadline > T":   func(s *TaskSpec) { s.Deadline = 2 * des.Millisecond },
		"zero budget":    func(s *TaskSpec) { s.Budget = 0 },
		"neg offset":     func(s *TaskSpec) { s.Offset = -1 },
		"no criticality": func(s *TaskSpec) { s.Criticality = 0 },
		"no stack":       func(s *TaskSpec) { s.StackWords = 0 },
	}
	for name, mutate := range cases {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAddTaskRules(t *testing.T) {
	_, _, k, _ := buildKernel(t, Config{})
	spec := taskABase(t, adderSrc)
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.AddTask(spec); err == nil {
		t.Error("duplicate name accepted")
	}
	other := taskABase(t, adderSrc)
	other.Name = "taskB"
	if err := k.AddTask(other); err == nil {
		t.Error("duplicate priority accepted")
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.AddTask(taskABase(t, adderSrc)); err == nil {
		t.Error("AddTask after Start accepted")
	}
	if err := k.Start(); err == nil {
		t.Error("double Start accepted")
	}
}

func TestStartNeedsTasks(t *testing.T) {
	_, _, k, _ := buildKernel(t, Config{})
	if err := k.Start(); err == nil {
		t.Error("Start with no tasks accepted")
	}
}

// TestFaultFreeTEM checks Figure 3 scenario (i): two copies, one
// comparison, one commit, and exactly one output delivered per release.
func TestFaultFreeTEM(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{UseMMU: true})
	env.inputs[0] = 37
	if err := k.AddTask(taskABase(t, adderSrc)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(3*des.Millisecond + des.Millisecond/2); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Releases != 4 || st.OK != 4 || st.Masked != 0 || st.Omissions != 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(env.writes) != 4 {
		t.Fatalf("writes = %v", env.writes)
	}
	for _, w := range env.writes {
		if w.port != 1 || w.value != 42 {
			t.Errorf("write = %+v", w)
		}
	}
	// Each release: two copy-starts, two copy-ends, one match, one commit.
	starts := eventsOf(col, obs.KindCopyStart)
	if len(starts) != 8 {
		t.Errorf("copy starts = %d, want 8", len(starts))
	}
	if n := len(eventsOf(col, obs.KindCompareMatch)); n != 4 {
		t.Errorf("matches = %d, want 4", n)
	}
	if n := len(eventsOf(col, obs.KindCompareMismatch, obs.KindErrorDetected, obs.KindOmission)); n != 0 {
		t.Errorf("unexpected error events: %d", n)
	}
}

// TestInputLatching checks replica determinism (§2.6): even with a
// volatile environment, both TEM copies observe the release-time latch,
// so no comparison mismatch occurs.
func TestInputLatching(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{})
	env.volatileInputs = true
	if err := k.AddTask(taskABase(t, adderSrc)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(2*des.Millisecond + des.Millisecond/2); err != nil {
		t.Fatal(err)
	}
	if n := len(eventsOf(col, obs.KindCompareMismatch)); n != 0 {
		t.Errorf("mismatches with volatile inputs = %d (latching broken)", n)
	}
	// One environment read per release, not per copy.
	if env.reads[0] != 3 {
		t.Errorf("input reads = %d, want 3", env.reads[0])
	}
	// Outputs reflect the distinct latches: 1+5, 2+5, 3+5.
	if len(env.writes) != 3 || env.writes[0].value != 6 || env.writes[2].value != 8 {
		t.Errorf("writes = %v", env.writes)
	}
}

// TestComparisonDetectsRegisterFault reproduces Figure 3 scenario (ii):
// a silent data corruption in the second copy makes the comparison
// mismatch; the third copy restores a majority and the error is masked.
func TestComparisonDetectsRegisterFault(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{})
	spec := taskABase(t, burnSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	// One copy is ~4000 cycles ≈ 80 µs at 50 MHz (plus switch overhead).
	// Inject into the accumulator register mid-copy-2, ~120 µs in.
	sim.Schedule(120*des.Microsecond, des.PrioInject, func() {
		if k.Activity() != ActivityTask {
			t.Fatalf("activity at injection = %v", k.Activity())
		}
		k.Proc().FlipRegister(6, 7)
	})
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Masked != 1 {
		t.Fatalf("masked = %d, stats %+v", st.Masked, st)
	}
	if n := len(eventsOf(col, obs.KindCompareMismatch)); n != 1 {
		t.Errorf("mismatches = %d", n)
	}
	votes := eventsOf(col, obs.KindVote)
	if len(votes) != 1 || !strings.Contains(votes[0].Detail, "majority found") {
		t.Errorf("votes = %v", votes)
	}
	// The correct value still came out: sum 1..1000 = 500500.
	if len(env.writes) != 1 || env.writes[0].value != 500500 {
		t.Errorf("writes = %v", env.writes)
	}
	if st.ErrorsDetected[MechComparison] != 1 {
		t.Errorf("mechanisms = %v", st.ErrorsDetected)
	}
}

// TestEDMDetectedFaultRestartsCopy reproduces Figure 3 scenario (iii):
// a PC fault raises a hardware exception; the kernel terminates the
// copy, restores the context from the TCB and immediately starts a
// replacement copy. The release is masked and the result correct.
func TestEDMDetectedFaultRestartsCopy(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{})
	spec := taskABase(t, burnSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(40*des.Microsecond, des.PrioInject, func() {
		k.Proc().FlipPC(13) // far jump into zeroed memory → illegal opcode
	})
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Masked != 1 || st.Omissions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	detected := eventsOf(col, obs.KindErrorDetected)
	if len(detected) != 1 || detected[0].Detail != "illegal-opcode" {
		t.Errorf("detected = %v", detected)
	}
	// Three copy starts: the killed copy 1, its replacement, and copy 2.
	if n := len(eventsOf(col, obs.KindCopyStart)); n != 3 {
		t.Errorf("copy starts = %d, want 3", n)
	}
	if len(env.writes) != 1 || env.writes[0].value != 500500 {
		t.Errorf("writes = %v", env.writes)
	}
}

// TestOmissionWhenNoTimeToRecover: an error detected too close to the
// deadline leaves no room for another copy; the kernel enforces an
// omission failure (§2.5).
func TestOmissionWhenNoTimeToRecover(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{})
	spec := taskABase(t, burnSrc)
	spec.InputPorts = nil
	// Deadline fits the two copies plus a little, but not a third.
	spec.Deadline = 200 * des.Microsecond
	spec.Budget = 90 * des.Microsecond
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(120*des.Microsecond, des.PrioInject, func() {
		k.Proc().FlipRegister(6, 3)
	})
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Omissions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(env.writes) != 0 {
		t.Errorf("an omission still delivered: %v", env.writes)
	}
	om := eventsOf(col, obs.KindOmission)
	if len(om) != 1 || !strings.Contains(om[0].Detail, "third copy") {
		t.Errorf("omissions = %v", om)
	}
}

// TestBudgetTimerCatchesRunaway: an infinite loop trips the execution-
// time monitor; with a deterministic fault re-execution also overruns,
// and the release ends in an omission.
func TestBudgetTimerCatchesRunaway(t *testing.T) {
	sim, _, k, col := buildKernel(t, Config{PermanentThreshold: 100})
	spec := taskABase(t, spinSrc)
	spec.InputPorts = nil
	spec.Budget = 50 * des.Microsecond
	spec.Deadline = 400 * des.Microsecond
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
	if st.Omissions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ErrorsDetected[MechBudgetTimer] == 0 {
		t.Error("budget timer never fired")
	}
	if n := len(eventsOf(col, obs.KindErrorDetected)); n < 2 {
		t.Errorf("expected repeated budget errors, got %d", n)
	}
}

// TestNonCriticalShutdown: a detected error in a non-critical task shuts
// only that task down (§2.2, strategy 2); the critical task continues.
func TestNonCriticalShutdown(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{UseMMU: true})
	env.inputs[0] = 1
	crit := taskABase(t, adderSrc)
	if err := k.AddTask(crit); err != nil {
		t.Fatal(err)
	}
	wild := TaskSpec{
		Name:        "wild",
		Program:     cpu.MustAssemble(wildStoreSrc),
		Entry:       "start",
		Period:      des.Millisecond,
		Deadline:    des.Millisecond,
		Priority:    5,
		Criticality: NonCritical,
		Budget:      100 * des.Microsecond,
		StackStart:  stackB,
		StackWords:  64,
	}
	if err := k.AddTask(wild); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(3*des.Millisecond + des.Millisecond/2); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.TaskShutdowns != 1 {
		t.Fatalf("shutdowns = %d", st.TaskShutdowns)
	}
	if st.ErrorsDetected[MechMMUViolation] != 1 {
		t.Errorf("mechanisms = %v", st.ErrorsDetected)
	}
	// The critical task delivered all four releases regardless.
	if st.OK != 4 {
		t.Errorf("critical OK = %d, want 4 (stats %+v)", st.OK, st)
	}
	if n := len(eventsOf(col, obs.KindTaskShutdown)); n != 1 {
		t.Errorf("shutdown events = %d", n)
	}
	if failed, _ := k.Failed(); failed {
		t.Error("node went fail-silent for a non-critical error")
	}
}

// TestPreemption: a high-priority short task preempts a long low-priority
// TEM copy; both deliver correct results.
func TestPreemption(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{})
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
	if err := sim.RunUntil(des.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Omissions != 0 || st.Masked != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if n := len(eventsOf(col, obs.KindPreempt)); n == 0 {
		t.Error("no preemptions observed")
	}
	// The long task's result must be unaffected by interleaving.
	sawLong := false
	for _, w := range env.writes {
		if w.value == 500500 {
			sawLong = true
		}
	}
	if !sawLong {
		t.Errorf("long task result missing from %v", env.writes)
	}
}

// TestStatePersistsAcrossReleases: committed state survives, giving an
// increasing counter; TEM copies never see each other's tentative state.
func TestStatePersistsAcrossReleases(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{})
	spec := taskABase(t, counterSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(4*des.Millisecond + des.Millisecond/2); err != nil {
		t.Fatal(err)
	}
	if len(env.writes) != 5 {
		t.Fatalf("writes = %v", env.writes)
	}
	for i, w := range env.writes {
		if w.value != uint32(i+1) {
			t.Errorf("release %d counter = %d, want %d", i, w.value, i+1)
		}
	}
}

// TestStateCRCDetectsCorruption: with ECC off, a bit flip in the state
// region between releases is caught by the kernel's CRC check and the
// committed image is restored.
func TestStateCRCDetectsCorruption(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{})
	spec := taskABase(t, counterSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the counter word between release 1 and release 2.
	sim.Schedule(des.Millisecond/2, des.PrioInject, func() {
		k.Mem().FlipBit(dataA, 30)
	})
	if err := sim.RunUntil(2*des.Millisecond + des.Millisecond/2); err != nil {
		t.Fatal(err)
	}
	if n := len(eventsOf(col, obs.KindStateCRCError)); n != 1 {
		t.Fatalf("crc errors = %d", n)
	}
	// The counter continued 1, 2, 3 — corruption did not propagate.
	if len(env.writes) != 3 {
		t.Fatalf("writes = %v", env.writes)
	}
	for i, w := range env.writes {
		if w.value != uint32(i+1) {
			t.Errorf("release %d counter = %d, want %d", i, w.value, i+1)
		}
	}
}

// TestECCAbsorbsMemoryFault: with ECC on, a single-bit flip in the code
// region is corrected transparently at the next instruction fetch. (The
// data region is rewritten by the kernel before every copy, which would
// itself scrub the flip, so code is the region where ECC correction is
// actually observable.)
func TestECCAbsorbsMemoryFault(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{ECC: true})
	spec := taskABase(t, counterSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(des.Millisecond/2, des.PrioInject, func() {
		k.Mem().FlipBit(codeA+4, 3) // second instruction of the task
	})
	if err := sim.RunUntil(2*des.Millisecond + des.Millisecond/2); err != nil {
		t.Fatal(err)
	}
	if n := len(eventsOf(col, obs.KindStateCRCError, obs.KindCompareMismatch, obs.KindErrorDetected)); n != 0 {
		t.Fatalf("error events with ECC = %d", n)
	}
	if k.Mem().CorrectedErrors != 1 {
		t.Errorf("corrected = %d", k.Mem().CorrectedErrors)
	}
	if len(env.writes) != 3 || env.writes[2].value != 3 {
		t.Errorf("writes = %v", env.writes)
	}
}

// TestSignatureGoldenCheck: the control-flow signature must match the
// expected golden value; a wrong expectation is detected as an error.
func TestSignatureGoldenCheck(t *testing.T) {
	// First, learn the golden signature from a clean run.
	sim, env, k, _ := buildKernel(t, Config{})
	spec := taskABase(t, sigSrc)
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
	if len(env.writes) != 1 {
		t.Fatal("golden run failed")
	}
	golden := k.Proc().Signature // final signature of the last copy
	if golden == 0 {
		t.Fatal("golden signature is zero; checkpoints not executing")
	}

	// Now demand an impossible signature: every copy is rejected and the
	// release ends in an omission.
	sim2, env2, k2, col2 := buildKernel(t, Config{PermanentThreshold: 100})
	spec2 := taskABase(t, sigSrc)
	spec2.InputPorts = nil
	spec2.ExpectedSignature = golden ^ 0xFFFF
	if err := k2.AddTask(spec2); err != nil {
		t.Fatal(err)
	}
	if err := k2.Start(); err != nil {
		t.Fatal(err)
	}
	// Retries repeat until the deadline test fails (~deadline − budget),
	// so run past the first deadline at 1 ms.
	if err := sim2.RunUntil(des.Millisecond + des.Millisecond/2); err != nil {
		t.Fatal(err)
	}
	if len(env2.writes) != 0 {
		t.Errorf("bad-signature run delivered %v", env2.writes)
	}
	if k2.Stats().ErrorsDetected[MechSignature] == 0 {
		t.Error("signature mechanism never fired")
	}
	if n := len(eventsOf(col2, obs.KindOmission)); n != 1 {
		t.Errorf("omissions = %d", n)
	}

	// And the correct expectation passes.
	sim3, env3, k3, _ := buildKernel(t, Config{})
	spec3 := taskABase(t, sigSrc)
	spec3.InputPorts = nil
	spec3.ExpectedSignature = golden
	if err := k3.AddTask(spec3); err != nil {
		t.Fatal(err)
	}
	if err := k3.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim3.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	if len(env3.writes) != 1 {
		t.Error("correct signature run failed")
	}
}

// TestPermanentSuspicionFailSilent: errors repeating across releases
// drive the node fail-silent for off-line diagnosis (§2.5).
func TestPermanentSuspicionFailSilent(t *testing.T) {
	sim, _, k, col := buildKernel(t, Config{PermanentThreshold: 3})
	spec := taskABase(t, spinSrc) // deterministic runaway: every release errs
	spec.InputPorts = nil
	spec.Budget = 50 * des.Microsecond
	spec.Deadline = 300 * des.Microsecond
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	var failAt des.Time
	k.OnFailSilent = func(at des.Time, reason string) { failAt = at }
	if err := sim.RunUntil(10 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	failed, reason := k.Failed()
	if !failed {
		t.Fatal("node did not go fail-silent")
	}
	if !strings.Contains(reason, "permanent") {
		t.Errorf("reason = %q", reason)
	}
	if failAt == 0 {
		t.Error("OnFailSilent not invoked")
	}
	// After failing silent, no further releases are processed.
	st := k.Stats()
	if st.Omissions != 3 {
		t.Errorf("omissions = %d, want 3 (threshold)", st.Omissions)
	}
	if n := len(eventsOf(col, obs.KindFailSilent)); n != 1 {
		t.Errorf("fail-silent events = %d", n)
	}
}

// TestForceFailSilent covers the campaign-driver path for kernel faults.
func TestForceFailSilent(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{})
	env.inputs[0] = 1
	if err := k.AddTask(taskABase(t, adderSrc)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(des.Millisecond/2, des.PrioInject, func() {
		k.ForceFailSilent("kernel assertion")
	})
	if err := sim.RunUntil(5 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if failed, reason := k.Failed(); !failed || reason != "kernel assertion" {
		t.Errorf("failed = %v, %q", failed, reason)
	}
	// Only the first release delivered.
	if len(env.writes) != 1 {
		t.Errorf("writes = %v", env.writes)
	}
	if k.Activity() != ActivityIdle {
		t.Errorf("activity = %v", k.Activity())
	}
}

// TestOutcomeHook checks the campaign observation interface.
func TestOutcomeHook(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{})
	env.inputs[0] = 1
	if err := k.AddTask(taskABase(t, adderSrc)); err != nil {
		t.Fatal(err)
	}
	var infos []OutcomeInfo
	k.OnOutcome = func(i OutcomeInfo) { infos = append(infos, i) }
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(des.Millisecond + des.Millisecond/2); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("infos = %d", len(infos))
	}
	if infos[0].Task != "taskA" || infos[0].Outcome != OutcomeOK {
		t.Errorf("info = %+v", infos[0])
	}
	if infos[0].SettledAt <= infos[0].Release {
		t.Error("settle time not after release")
	}
}

// TestKernelActivityAccounting: kernel cycles accumulate with context
// switches and the activity probe distinguishes kernel windows.
func TestKernelActivityAccounting(t *testing.T) {
	sim, env, k, _ := buildKernel(t, Config{SwitchCycles: 500})
	env.inputs[0] = 1
	if err := k.AddTask(taskABase(t, adderSrc)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	// Right after release 0 the kernel is switching (500 cycles = 10 µs).
	var saw Activity
	sim.Schedule(5*des.Microsecond, des.PrioObserver, func() { saw = k.Activity() })
	if err := sim.RunUntil(des.Millisecond / 2); err != nil {
		t.Fatal(err)
	}
	if saw != ActivityKernel {
		t.Errorf("activity during switch window = %v", saw)
	}
	st := k.Stats()
	if st.KernelCycles == 0 || st.TaskCycles == 0 {
		t.Errorf("cycle split = %+v", st)
	}
}

func BenchmarkKernelSecondOfTEM(b *testing.B) {
	prog := cpu.MustAssemble(burnSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := des.New()
		env := newTestEnv()
		k := New(sim, env, Config{})
		spec := TaskSpec{
			Name: "burn", Program: prog, Entry: "start",
			Period: des.Millisecond, Deadline: des.Millisecond,
			Priority: 1, Criticality: Critical, Budget: 200 * des.Microsecond,
			OutputPorts: []uint32{1},
			StackStart:  stackA, StackWords: 64,
		}
		if err := k.AddTask(spec); err != nil {
			b.Fatal(err)
		}
		if err := k.Start(); err != nil {
			b.Fatal(err)
		}
		if err := sim.RunUntil(des.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFaultIsolationBetweenTasks: a fault in a high-priority task's copy
// is masked without disturbing the preempted low-priority task — the MMU
// confinement and per-job contexts of §2.4 in action.
func TestFaultIsolationBetweenTasks(t *testing.T) {
	sim, env, k, col := buildKernel(t, Config{UseMMU: true})
	low := taskABase(t, burnSrc)
	low.Name = "low"
	low.InputPorts = nil
	low.Priority = 1
	low.Period = 2 * des.Millisecond
	low.Deadline = 2 * des.Millisecond
	low.Budget = 300 * des.Microsecond
	if err := k.AddTask(low); err != nil {
		t.Fatal(err)
	}
	highSrc := strings.Replace(burnSrc, ".org 0x0000", ".org 0x1000", 1)
	highSrc = strings.Replace(highSrc, "st r6, [r1+4]", "st r6, [r1+8]", 1) // port 2
	high := TaskSpec{
		Name:        "high",
		Program:     cpu.MustAssemble(highSrc),
		Entry:       "start",
		Period:      des.Millisecond,
		Deadline:    des.Millisecond,
		Offset:      30 * des.Microsecond,
		Priority:    9,
		Criticality: Critical,
		Budget:      300 * des.Microsecond,
		OutputPorts: []uint32{2},
		StackStart:  stackB,
		StackWords:  256,
	}
	if err := k.AddTask(high); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	// The high task preempts low at 30 µs and runs copy 1 in
	// [34, ~114 µs]; corrupt its accumulator mid-copy.
	sim.Schedule(70*des.Microsecond, des.PrioInject, func() {
		if k.CurrentTask() != "high" {
			t.Fatalf("current task at injection = %q", k.CurrentTask())
		}
		k.Proc().FlipRegister(6, 11)
	})
	if err := sim.RunUntil(2 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Masked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Both tasks delivered correct values on all their releases: low has
	// one release (period 2 ms), high has two.
	var lowVals, highVals []uint32
	for _, w := range env.writes {
		switch w.port {
		case 1:
			lowVals = append(lowVals, w.value)
		case 2:
			highVals = append(highVals, w.value)
		}
	}
	if len(lowVals) != 1 || lowVals[0] != 500500 {
		t.Errorf("low outputs = %v", lowVals)
	}
	if len(highVals) != 2 || highVals[0] != 500500 || highVals[1] != 500500 {
		t.Errorf("high outputs = %v", highVals)
	}
	if n := len(eventsOf(col, obs.KindPreempt)); n == 0 {
		t.Error("no preemption recorded")
	}
	// The fault was detected in the high task only.
	for _, ev := range eventsOf(col, obs.KindCompareMismatch, obs.KindErrorDetected) {
		if ev.Task != "high" {
			t.Errorf("error event leaked to %q", ev.Task)
		}
	}
}

// TestObservedWCETFeedsSchedulability: the kernel measures each task's
// worst copy execution, which is the C the §2.8 analysis needs.
func TestObservedWCET(t *testing.T) {
	sim, _, k, _ := buildKernel(t, Config{})
	spec := taskABase(t, burnSrc)
	spec.InputPorts = nil
	if err := k.AddTask(spec); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.ObservedWCET("taskA"); ok {
		t.Error("WCET before any copy ran")
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(3 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	wcet, ok := k.ObservedWCET("taskA")
	if !ok {
		t.Fatal("no WCET observed")
	}
	// The burn copy is 4007 cycles ≈ 80.14 µs at 50 MHz.
	if wcet < 80*des.Microsecond || wcet > 81*des.Microsecond {
		t.Errorf("WCET = %v, want ≈80.1 µs", wcet)
	}
	if _, ok := k.ObservedWCET("nope"); ok {
		t.Error("unknown task has a WCET")
	}
}
