package fault

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// Write is one committed output observed by the environment.
type Write struct {
	Port, Value uint32
}

// Recorder implements kernel.Env: scripted inputs, recorded outputs.
type Recorder struct {
	// InputFn supplies input-port samples; nil reads as zero.
	InputFn func(port uint32) uint32
	// Writes collects committed outputs in order.
	Writes []Write
	// Omissions counts releases that ended in omission (fed by the
	// campaign via the kernel outcome hook).
	Omissions int
	// MaskedReleases counts releases that committed after detected errors.
	MaskedReleases int
}

// ReadInput implements kernel.Env.
func (r *Recorder) ReadInput(port uint32) uint32 {
	if r.InputFn == nil {
		return 0
	}
	return r.InputFn(port)
}

// WriteOutput implements kernel.Env.
func (r *Recorder) WriteOutput(port, value uint32) {
	r.Writes = append(r.Writes, Write{Port: port, Value: value})
}

var _ kernel.Env = (*Recorder)(nil)

// Instance is one freshly built simulation for a single trial.
type Instance struct {
	Sim    *des.Simulator
	Kernel *kernel.Kernel
	Rec    *Recorder
}

// Workload describes how to build identical trial instances and where
// faults may be aimed.
type Workload interface {
	// New builds a fresh instance with the kernel started.
	New() (*Instance, error)
	// Horizon is the simulated duration of one trial.
	Horizon() des.Time
	// InjectionWindow bounds the injection instants as the HALF-OPEN
	// interval [start, end): drawFault draws start + Intn(end-start), so
	// start itself can be drawn but end never is (within the horizon,
	// leaving room for the last release to settle).
	InjectionWindow() (start, end des.Time)
	// DataRange returns a task state region for memory-data faults.
	DataRange() (start uint32, words uint32)
	// CodeRange returns a code region for memory-code faults.
	CodeRange() (start uint32, words uint32)
}

// ObservableWorkload is a Workload that can attach an obs.Collector to
// the instances it builds. Campaigns with Telemetry enabled use
// NewObserved so each trial's kernel and simulator report into the
// trial's private collector.
type ObservableWorkload interface {
	Workload
	// NewObserved builds a fresh instance like New, wired to col.
	NewObserved(col *obs.Collector) (*Instance, error)
}

// Hyperperioder is implemented by workloads that know their hyperperiod
// — the least common multiple of their task periods, after which the
// release pattern repeats. The exhaustive verifier (internal/exhaust)
// enumerates fault placements over one hyperperiod by default: a
// placement at t and one at t + hyperperiod strike the same phase of
// the schedule.
type Hyperperioder interface {
	Hyperperiod() des.Time
}

// checksumSrc is the standard campaign workload program: a compute loop
// over the input and the task state with signature checkpoints, writing a
// result and updating state each period. It keeps several registers live
// for a long window, like the paper's brake-by-wire control task. The
// LOOPCOUNT placeholder sets the compute length (and thereby the duty
// cycle faults can hit).
const checksumSrc = `
	.org 0x0000
start:
	sig 11
	li r1, 0xFFFF0000
	ld r2, [r1+0]        ; input sample
	li r3, 0x8000        ; state base
	ld r4, [r3+0]        ; running state
	movi r5, LOOPCOUNT   ; loop count
	movi r6, 0           ; accumulator
loop:
	add r6, r6, r2
	xor r6, r6, r4
	movi r7, 3
	mul r6, r6, r7
	addi r5, r5, -1
	cmpi r5, 0
	bgt loop
	sig 12
	add r4, r4, r6       ; fold into state
	st r4, [r3+0]
	st r6, [r1+4]        ; result to output port 1
	sig 13
	sys 2
`

// stdWorkload is the default campaign workload.
type stdWorkload struct {
	cfg  StdWorkloadConfig
	prog *cpu.Program
}

// StdWorkloadConfig parameterizes the default workload.
type StdWorkloadConfig struct {
	// ECC enables the memory ECC model. Default off (so memory faults
	// actually stress the kernel checks; the ECC ablation turns it on).
	ECC bool
	// UseMMU enables access confinement. Default off: applyDefaults
	// leaves it as given, so the zero config (the gate config included)
	// runs without the MMU.
	UseMMU bool
	// Periods is the number of task periods per trial. Default 8.
	Periods int
	// Period is the task period. Default 1 ms.
	Period des.Time
	// Deadline overrides the task deadline (default: Period). Tight
	// deadlines make late-detected errors unrecoverable, producing the
	// omission failures of §2.5 — the slack-reservation ablation sweeps
	// this.
	Deadline des.Time
	// Budget overrides the per-copy execution budget (default Period/4).
	Budget des.Time
	// Kernel ablation switches forwarded to every instance's kernel.
	AlwaysTriple       bool
	NoContextRestore   bool
	CompareOutputsOnly bool
	FailSilentOnError  bool
	// InterpretiveDispatch forwards to the kernel config: run the CPU on
	// the per-step interpretive decoder instead of the predecoded
	// dispatch engine. Results are bit-identical either way (guarded by
	// the dispatch differential tests); used by those tests and for
	// engine triage.
	InterpretiveDispatch bool
	// PermanentThreshold forwards to the kernel config. Default 5.
	PermanentThreshold int
	// Compute is the workload's inner-loop iteration count; it scales
	// the task's execution time and the fraction of time faults can hit
	// live state. Default 64 (~11 µs per copy at 50 MHz).
	Compute int
}

func (c *StdWorkloadConfig) applyDefaults() {
	if c.Periods == 0 {
		c.Periods = 8
	}
	if c.Period == 0 {
		c.Period = des.Millisecond
	}
	if c.Deadline == 0 {
		c.Deadline = c.Period
	}
	if c.Budget == 0 {
		c.Budget = c.Period / 4
	}
	if c.Compute == 0 {
		c.Compute = 64
	}
}

// Workload memory layout.
const (
	stdCode  uint32 = 0x0000
	stdData  uint32 = 0x8000
	stdStack uint32 = 0xC000
)

// NewStdWorkload returns the standard single-task critical workload used
// by campaigns and benchmarks. The MMU is enabled only when cfg.UseMMU
// is set.
func NewStdWorkload(cfg StdWorkloadConfig) Workload {
	cfg.applyDefaults()
	src := strings.Replace(checksumSrc, "LOOPCOUNT",
		fmt.Sprintf("%d", cfg.Compute), 1)
	return &stdWorkload{cfg: cfg, prog: cpu.MustAssemble(src)}
}

// New implements Workload.
func (w *stdWorkload) New() (*Instance, error) { return w.build(nil) }

// NewObserved implements ObservableWorkload.
func (w *stdWorkload) NewObserved(col *obs.Collector) (*Instance, error) {
	return w.build(col)
}

// build constructs one instance, optionally wired to an obs collector.
func (w *stdWorkload) build(col *obs.Collector) (*Instance, error) {
	sim := des.New()
	rec := &Recorder{InputFn: func(port uint32) uint32 { return 0x1234 }}
	k := kernel.New(sim, rec, kernel.Config{
		ECC:                  w.cfg.ECC,
		UseMMU:               w.cfg.UseMMU,
		PermanentThreshold:   w.cfg.PermanentThreshold,
		Obs:                  col,
		AlwaysTriple:         w.cfg.AlwaysTriple,
		NoContextRestore:     w.cfg.NoContextRestore,
		CompareOutputsOnly:   w.cfg.CompareOutputsOnly,
		FailSilentOnError:    w.cfg.FailSilentOnError,
		InterpretiveDispatch: w.cfg.InterpretiveDispatch,
	})
	if col != nil {
		obs.AttachSimulator(col, sim)
	}
	spec := kernel.TaskSpec{
		Name:        "control",
		Program:     w.prog,
		Entry:       "start",
		Period:      w.cfg.Period,
		Deadline:    w.cfg.Deadline,
		Priority:    10,
		Criticality: kernel.Critical,
		Budget:      w.cfg.Budget,
		InputPorts:  []uint32{0},
		OutputPorts: []uint32{1},
		DataStart:   stdData,
		DataWords:   8,
		StackStart:  stdStack,
		StackWords:  128,
	}
	if err := k.AddTask(spec); err != nil {
		return nil, fmt.Errorf("fault: workload: %w", err)
	}
	inst := &Instance{Sim: sim, Kernel: k, Rec: rec}
	k.OnOutcome = func(info kernel.OutcomeInfo) {
		switch info.Outcome {
		case kernel.OutcomeOmission:
			rec.Omissions++
		case kernel.OutcomeMasked:
			rec.MaskedReleases++
		}
	}
	if err := k.Start(); err != nil {
		return nil, fmt.Errorf("fault: workload: %w", err)
	}
	return inst, nil
}

// Horizon implements Workload: all periods plus settle margin.
func (w *stdWorkload) Horizon() des.Time {
	return des.Time(w.cfg.Periods)*w.cfg.Period + w.cfg.Period/2
}

// InjectionWindow implements Workload: the half-open window [0,
// (Periods-1)·Period) leaves the last release room to recover before
// the horizon. The end instant itself is never drawn (see the
// interface's half-open contract), so the final release always starts
// fault-free.
func (w *stdWorkload) InjectionWindow() (des.Time, des.Time) {
	return 0, des.Time(w.cfg.Periods-1) * w.cfg.Period
}

// Hyperperiod implements Hyperperioder: a single periodic task's
// schedule repeats every period.
func (w *stdWorkload) Hyperperiod() des.Time { return w.cfg.Period }

// DataRange implements Workload.
func (w *stdWorkload) DataRange() (uint32, uint32) { return stdData, 8 }

// CodeRange implements Workload.
func (w *stdWorkload) CodeRange() (uint32, uint32) {
	return stdCode, w.prog.SizeBytes() / 4
}
