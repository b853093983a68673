package kernel

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/obs"
)

// Env is the node's environment: sensor inputs latched at task release
// and actuator outputs written when a result is committed.
type Env interface {
	// ReadInput samples an input port.
	ReadInput(port uint32) uint32
	// WriteOutput delivers a committed output value.
	WriteOutput(port uint32, value uint32)
}

// Config parameterizes a kernel instance.
type Config struct {
	// ClockHz is the CPU clock (cycles per second). Default 50 MHz.
	ClockHz int64
	// MemWords sizes RAM in 32-bit words. Default 65536 (256 KiB).
	MemWords int
	// ECC enables the SEC-DED memory model (Table 1).
	ECC bool
	// UseMMU enables per-task access confinement (Table 1).
	UseMMU bool
	// SwitchCycles is the kernel overhead charged per context switch.
	// Default 200 cycles.
	SwitchCycles uint64
	// PermanentThreshold is the number of consecutive releases with
	// detected errors after which the kernel suspects a permanent fault
	// and shuts the node down for off-line diagnosis (§2.5). Default 5.
	PermanentThreshold int
	// FailSilentOnError turns the kernel into a conventional fail-silent
	// node (the paper's FS baseline, §3.2.1): every detected error
	// immediately silences the node instead of triggering TEM recovery.
	FailSilentOnError bool
	// InterpretiveDispatch disables the threaded-code (predecoded)
	// dispatch path and forces the reference interpreter. Behaviour is
	// bit-identical either way (guarded by the lockstep-differential
	// tests); this switch exists for those tests and for debugging.
	InterpretiveDispatch bool

	// Ablation switches (see DESIGN.md §5). All default off, which is
	// the paper's design.

	// AlwaysTriple executes three copies of every critical task
	// unconditionally (time-redundant TMR) instead of TEM's third-copy-
	// on-demand. Same masking, ~50% more CPU.
	AlwaysTriple bool
	// NoContextRestore skips the CPU-context restore from the TCB after
	// an EDM-detected error: the replacement copy resumes from the
	// corrupted context, which §2.5 argues defeats recovery.
	NoContextRestore bool
	// CompareOutputsOnly restricts the TEM comparison to the output
	// write sequence, ignoring the state image and control-flow
	// signature — the cheaper comparison §2.6 warns lets state
	// corruption escape.
	CompareOutputsOnly bool
	// Obs, when non-nil, receives structured telemetry: typed event
	// records for every TEM state-machine step plus counters and
	// histograms in the collector's registry (see internal/obs). It is
	// the kernel's only event stream.
	Obs *obs.Collector
}

func (c *Config) applyDefaults() {
	if c.ClockHz == 0 {
		c.ClockHz = 50_000_000
	}
	if c.MemWords == 0 {
		c.MemWords = 1 << 16
	}
	if c.SwitchCycles == 0 {
		c.SwitchCycles = 200
	}
	if c.PermanentThreshold == 0 {
		c.PermanentThreshold = 5
	}
}

// Activity classifies what the node's processor is doing at an instant;
// the fault-injection campaign uses it to decide what a fault hits.
type Activity int

// Processor activities.
const (
	ActivityIdle Activity = iota + 1
	ActivityTask
	ActivityKernel
)

// String names the activity.
func (a Activity) String() string {
	switch a {
	case ActivityIdle:
		return "idle"
	case ActivityTask:
		return "task"
	case ActivityKernel:
		return "kernel"
	default:
		return fmt.Sprintf("activity(%d)", int(a))
	}
}

// Stats aggregates kernel counters.
type Stats struct {
	Releases      uint64
	OK            uint64
	Masked        uint64
	Omissions     uint64
	TaskShutdowns uint64
	// ErrorsDetected counts detected errors by mechanism. Its MechECC
	// entry is the memory's corrected errors (cpu.Memory.CorrectedErrors).
	ErrorsDetected [NumMechanisms]uint64
	// KernelCycles and TaskCycles split processor time.
	KernelCycles uint64
	TaskCycles   uint64
}

// OutcomeInfo is passed to the outcome hook after every release settles.
type OutcomeInfo struct {
	Task           string
	Release        des.Time
	SettledAt      des.Time
	Outcome        Outcome
	ErrorsDetected int
}

// Kernel is a simulated fault-tolerant real-time kernel bound to one
// simulated processor, driven by a des.Simulator.
type Kernel struct {
	//nlft:snapshot-skip configuration fixed at New, never assigned after
	cfg Config
	//nlft:snapshot-skip simulator wiring; the des core snapshots its own state
	sim  *des.Simulator
	mem  *cpu.Memory
	mmu  *cpu.MMU
	proc *cpu.CPU
	//nlft:snapshot-skip environment wiring installed at construction
	env Env

	//nlft:snapshot-skip name index over order; tcb state is captured through order
	tasks map[string]*tcb
	order []*tcb

	ready   []*job
	current *job

	kernelBusyUntil des.Time
	// cpuBusyUntil marks the end of the slice the CPU has already
	// (atomically) executed. Dispatch attempts inside that window would
	// re-run simulated time and are deferred to the slice's own
	// follow-up event.
	cpuBusyUntil des.Time
	// procOwner is the job whose live context sits in the processor
	// registers. A paused-but-current job is NOT restored from its saved
	// context on resume: its state stayed in the registers, so faults
	// injected while it was paused correctly take effect (the physical
	// CPU would behave the same way).
	procOwner  *job
	failed     bool
	failReason string
	//nlft:snapshot-skip one-way start latch; forks only happen after Start
	started bool
	//nlft:snapshot-skip derived from cfg at Start, immutable afterwards
	cyclePeriod des.Time

	stats Stats
	// obsTaskCycles/obsKernelCycles are the cached cycle counters of the
	// configured collector (nil when telemetry is off), resolved once so
	// the per-slice accounting stays off the allocation path.
	//nlft:snapshot-skip cached collector counter pointers; the registry itself is snapshotted by obs
	obsTaskCycles *obs.Counter
	//nlft:snapshot-skip cached collector counter pointers; the registry itself is snapshotted by obs
	obsKernelCycles *obs.Counter
	// OnOutcome, when set, observes every settled release.
	//nlft:snapshot-skip passive observer hook installed per run, not rewindable state
	OnOutcome func(OutcomeInfo)
	// OnFailSilent, when set, observes node shutdown.
	//nlft:snapshot-skip passive observer hook installed per run, not rewindable state
	OnFailSilent func(at des.Time, reason string)
	// OnContextSwitch, when set, observes every context switch with the
	// half-open window [start, end) during which the kernel occupies the
	// processor (Activity reports ActivityKernel strictly inside it).
	// The hook is passive — it is not part of the snapshot state and
	// must not mutate the kernel.
	//nlft:snapshot-skip passive observer hook installed per run, not rewindable state
	OnContextSwitch func(start, end des.Time)

	dispatchPending bool
	// dispatchFn is the bound dispatch callback, created once so
	// scheduleDispatch re-arms the pass without allocating a method-value
	// closure per event.
	//nlft:snapshot-skip bound method-value closure, identical across the kernel's lifetime
	dispatchFn func()
	// slices, when set, runs every CPU slice (SetSliceMemo); nil
	// interprets them all.
	//nlft:snapshot-skip memo of slice effects keyed by complete input; valid for any state, so a restore keeps it
	slices *cpu.SliceMemo
}

// New builds a kernel on the given simulator and environment.
func New(sim *des.Simulator, env Env, cfg Config) *Kernel {
	cfg.applyDefaults()
	if sim == nil {
		panic("kernel: nil simulator")
	}
	if env == nil {
		panic("kernel: nil environment")
	}
	mem := cpu.NewMemory(cfg.MemWords, cfg.ECC)
	mmu := cpu.NewMMU()
	k := &Kernel{
		cfg:         cfg,
		sim:         sim,
		mem:         mem,
		mmu:         mmu,
		proc:        cpu.New(mem, mmu),
		env:         env,
		tasks:       make(map[string]*tcb),
		cyclePeriod: des.Time(int64(des.Second) / cfg.ClockHz),
	}
	mem.AttachIO(k)
	k.dispatchFn = k.dispatch
	if cfg.Obs != nil {
		k.obsTaskCycles = cfg.Obs.Counter("kernel.task_cycles", "", "")
		k.obsKernelCycles = cfg.Obs.Counter("kernel.kernel_cycles", "", "")
	}
	return k
}

// SetSliceMemo runs every later CPU slice through m: a slice whose
// complete input m has recorded replays the recorded effect, any other
// is interpreted (and recorded while m has room). The effect of a slice
// is a function of its input, so a memo may serve any instance built
// from the same configuration and tasks, across restores. Nil restores
// plain interpretation.
func (k *Kernel) SetSliceMemo(m *cpu.SliceMemo) { k.slices = m }

// sliceSalt identifies what a slice of j can observe beyond the
// processor and RAM: the task (its priority is unique within the
// kernel, and fixes its MMU regions and ports) and the inputs latched
// at release, which its input-port loads return.
//
//nlft:noalloc
func sliceSalt(j *job) uint64 {
	h := (14695981039346656037 ^ uint64(uint32(j.task.spec.Priority))) * 1099511628211
	for _, v := range j.inputLatch {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// Mem exposes RAM for program loading and fault injection.
func (k *Kernel) Mem() *cpu.Memory { return k.mem }

// Proc exposes the processor for fault injection.
func (k *Kernel) Proc() *cpu.CPU { return k.proc }

// Stats returns a copy of the counters.
//
//nlft:noalloc
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.ErrorsDetected[MechECC] = k.mem.CorrectedErrors
	return s
}

// Failed reports whether the node went fail-silent, with the reason.
func (k *Kernel) Failed() (bool, string) { return k.failed, k.failReason }

// Activity reports what the processor is doing now.
func (k *Kernel) Activity() Activity {
	switch {
	case k.failed:
		return ActivityIdle
	case k.sim.Now() < k.kernelBusyUntil:
		return ActivityKernel
	case k.current != nil:
		return ActivityTask
	default:
		return ActivityIdle
	}
}

// CurrentTask reports the running task's name, or "" when idle.
func (k *Kernel) CurrentTask() string {
	if k.current == nil {
		return ""
	}
	return k.current.task.spec.Name
}

// AddTask registers a task before Start.
func (k *Kernel) AddTask(spec TaskSpec) error {
	if k.started {
		return errors.New("kernel: AddTask after Start")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, dup := k.tasks[spec.Name]; dup {
		return fmt.Errorf("kernel: duplicate task %q", spec.Name)
	}
	for _, other := range k.order {
		if other.spec.Priority == spec.Priority {
			return fmt.Errorf("kernel: task %q reuses priority %d of %q",
				spec.Name, spec.Priority, other.spec.Name)
		}
	}
	entry, err := spec.Program.Entry(spec.Entry)
	if err != nil {
		return err
	}
	t := &tcb{spec: spec, entryPC: entry, alive: true}
	t.regions = k.buildRegions(spec)
	t.releaseFn = func() { k.release(t) }
	t.deferredTriggerFn = func() {
		t.pendingTrigger = false
		if !k.failed && t.alive {
			k.release(t)
		}
	}
	if k.cfg.Obs != nil {
		t.obsCopyCycles = k.cfg.Obs.Histogram("kernel.copy_cycles", spec.Name)
	}
	k.tasks[spec.Name] = t
	k.order = append(k.order, t)
	return nil
}

// buildRegions computes the MMU region set for a task.
func (k *Kernel) buildRegions(spec TaskSpec) []cpu.Region {
	regions := []cpu.Region{
		{Start: spec.Program.Origin, End: spec.Program.Origin + spec.Program.SizeBytes(),
			Perms: cpu.PermRead | cpu.PermExec},
	}
	if spec.DataWords > 0 {
		regions = append(regions, cpu.Region{
			Start: spec.DataStart, End: spec.DataStart + spec.DataWords*4,
			Perms: cpu.PermRead | cpu.PermWrite,
		})
	}
	regions = append(regions, cpu.Region{
		Start: spec.StackStart, End: spec.StackStart + spec.StackWords*4,
		Perms: cpu.PermRead | cpu.PermWrite,
	})
	for _, p := range spec.InputPorts {
		addr := cpu.IOBase + p*4
		regions = append(regions, cpu.Region{Start: addr, End: addr + 4, Perms: cpu.PermRead})
	}
	for _, p := range spec.OutputPorts {
		addr := cpu.IOBase + p*4
		regions = append(regions, cpu.Region{Start: addr, End: addr + 4, Perms: cpu.PermWrite})
	}
	return regions
}

// Start loads programs and schedules the initial releases.
func (k *Kernel) Start() error {
	if k.started {
		return errors.New("kernel: already started")
	}
	if len(k.order) == 0 {
		return errors.New("kernel: no tasks")
	}
	k.started = true
	var progEnd uint32
	for _, t := range k.order {
		t.spec.Program.LoadInto(k.mem)
		if end := t.spec.Program.Origin + t.spec.Program.SizeBytes(); end > progEnd {
			progEnd = end
		}
	}
	if !k.cfg.InterpretiveDispatch {
		// Predecode covers the loaded program images only: every
		// campaign slot and golden run builds its own instance, so the
		// cache must stay proportional to code size, not RAM size. PCs
		// outside coverage (faulted jumps into data or stack) execute
		// interpretively.
		k.mem.EnablePredecode(progEnd / 4)
	}
	for _, t := range k.order {
		if t.spec.Sporadic {
			continue // released by Trigger
		}
		k.sim.Schedule(k.sim.Now()+t.spec.Offset, des.PrioKernel, t.releaseFn)
	}
	return nil
}

// Trigger releases a sporadic task now — or, if the minimal
// inter-arrival time since its previous release has not yet elapsed, at
// the earliest legal instant (at most one activation is queued).
func (k *Kernel) Trigger(name string) error {
	if !k.started {
		return errors.New("kernel: Trigger before Start")
	}
	t, ok := k.tasks[name]
	if !ok {
		return fmt.Errorf("kernel: unknown task %q", name)
	}
	if !t.spec.Sporadic {
		return fmt.Errorf("kernel: task %q is not sporadic", name)
	}
	if k.failed || !t.alive {
		return nil
	}
	now := k.sim.Now()
	earliest := now
	if t.hasReleased && t.lastRelease+t.spec.Period > now {
		earliest = t.lastRelease + t.spec.Period
	}
	if earliest == now {
		k.release(t)
		return nil
	}
	if t.pendingTrigger {
		return nil // an activation is already queued
	}
	t.pendingTrigger = true
	k.sim.Schedule(earliest, des.PrioKernel, t.deferredTriggerFn)
	return nil
}

// emit records one TEM state-machine step in the telemetry stream.
//
//nlft:noalloc
func (k *Kernel) emit(kind obs.Kind, task string, copyIdx int, detail string) {
	if k.cfg.Obs == nil {
		return
	}
	k.cfg.Obs.Emit(obs.Event{At: k.sim.Now(), Kind: kind, Task: task, Copy: copyIdx, Detail: detail})
}

// countDetected attributes one detected error to a mechanism in both
// Stats.ErrorsDetected and the telemetry registry.
func (k *Kernel) countDetected(task string, m Mechanism) {
	k.stats.ErrorsDetected[m]++
	if k.cfg.Obs != nil {
		k.cfg.Obs.Counter("kernel.errors_detected", task, m.String()).Inc()
	}
}

// release activates one job of t and schedules the next release.
//
//nlft:noalloc
func (k *Kernel) release(t *tcb) {
	if k.failed {
		return
	}
	now := k.sim.Now()
	if !t.spec.Sporadic {
		k.sim.Schedule(now+t.spec.Period, des.PrioKernel, t.releaseFn)
	}
	if !t.alive {
		return
	}
	k.stats.Releases++
	t.releaseCount++
	t.lastRelease = now
	t.hasReleased = true

	// Data-integrity check (Table 1): verify the state region CRC before
	// using the state; restore the committed image on mismatch.
	crcError := false
	if t.spec.DataWords > 0 && t.stateCRCSet {
		if t.dataCRC(k.mem) != t.stateCRC {
			crcError = true
			k.emit(obs.KindStateCRCError, t.spec.Name, 0, "restoring committed state")
			k.countDetected(t.spec.Name, MechStateCRC)
			if len(t.stateImage) == int(t.spec.DataWords) {
				for i, w := range t.stateImage {
					k.mem.Poke(t.spec.DataStart+uint32(i)*4, w)
				}
			}
		}
	}

	j := k.acquireJob(t)
	j.release = now
	j.deadline = now + t.spec.Deadline
	if crcError {
		j.errorsDetected++
	}
	for _, p := range t.spec.InputPorts {
		j.inputLatch = append(j.inputLatch, k.env.ReadInput(p))
	}
	for i := uint32(0); i < t.spec.DataWords; i++ {
		j.dataSnapshot = append(j.dataSnapshot, k.mem.Peek(t.spec.DataStart+i*4))
	}
	j.deadlineEvent = k.sim.Schedule(j.deadline, des.PrioKernel, j.deadlineFn)
	k.ready = append(k.ready, j)
	// The criticality lets stream consumers (the invariant checker) tell
	// TEM tasks from single-copy ones.
	k.emit(obs.KindRelease, t.spec.Name, 0, t.spec.Criticality.String())
	k.scheduleDispatch()
}

// acquireJob returns a recycled job record for t, or a fresh one with
// its continuation callbacks bound. A settled record is only reused once
// no queued event still references it (its chain handle is no longer
// scheduled), so a stale continuation firing late — e.g. a copy-complete
// event outliving a deadline omission at the same instant — can never
// observe a new incarnation of its job. Slice backings survive the reset
// ([:0]), which is what makes steady-state releases allocation-free.
//
//nlft:noalloc
func (k *Kernel) acquireJob(t *tcb) *job {
	var j *job
	for i := len(t.freeJobs) - 1; i >= 0; i-- {
		cand := t.freeJobs[i]
		if k.sim.Scheduled(cand.chainEvent) {
			continue
		}
		t.freeJobs = append(t.freeJobs[:i], t.freeJobs[i+1:]...)
		j = cand
		break
	}
	if j == nil {
		//nlft:allow noalloc cold pool-miss path: one job record per concurrency level, amortized to zero
		j = &job{task: t}
		j.deadlineFn = func() { k.deadlineCheck(j) }                   //nlft:allow noalloc cold pool-miss path: continuation bound once per job record
		j.runSliceFn = func() { k.runSlice(j) }                        //nlft:allow noalloc cold pool-miss path: continuation bound once per job record
		j.resumeFn = func() { k.dispatchIfCurrent(j) }                 //nlft:allow noalloc cold pool-miss path: continuation bound once per job record
		j.completeFn = func() { k.copyComplete(j) }                    //nlft:allow noalloc cold pool-miss path: continuation bound once per job record
		j.errorFn = func() { k.handleDetectedError(j, j.pendingMech) } //nlft:allow noalloc cold pool-miss path: continuation bound once per job record
		t.allJobs = append(t.allJobs, j)
	}
	j.state = jobReady
	j.copyIndex = 1
	j.nresults = 0
	j.started = false
	j.cyclesUsed = 0
	j.inputLatch = j.inputLatch[:0]
	j.outputs = j.outputs[:0]
	j.dataSnapshot = j.dataSnapshot[:0]
	j.errorsDetected = 0
	j.deadlineEvent = des.Event{}
	j.chainEvent = des.Event{}
	return j
}

// retireJob returns a settled job record to its task's free list.
//
//nlft:noalloc
func (k *Kernel) retireJob(j *job) {
	j.task.freeJobs = append(j.task.freeJobs, j)
}

// scheduleDispatch arranges a dispatch pass after the current events.
//
//nlft:noalloc
func (k *Kernel) scheduleDispatch() {
	if k.dispatchPending || k.failed {
		return
	}
	k.dispatchPending = true
	k.sim.Schedule(k.sim.Now(), des.PrioDispatch, k.dispatchFn)
}

// pickBest returns the highest-priority ready job.
//
//nlft:noalloc
func (k *Kernel) pickBest() *job {
	var best *job
	for _, j := range k.ready {
		if j.state == jobDone {
			continue
		}
		if best == nil || j.task.spec.Priority > best.task.spec.Priority {
			best = j
		}
	}
	return best
}

// removeJob drops a job from the ready set.
//
//nlft:noalloc
func (k *Kernel) removeJob(j *job) {
	for i, other := range k.ready {
		if other == j {
			k.ready = append(k.ready[:i], k.ready[i+1:]...)
			return
		}
	}
}

// dispatch selects the job to run and starts (or continues) a run slice.
//
//nlft:noalloc
func (k *Kernel) dispatch() {
	k.dispatchPending = false
	if k.failed {
		return
	}
	if k.sim.Now() < k.cpuBusyUntil {
		// The CPU already committed a slice spanning this instant; its
		// follow-up event will re-enter the dispatcher.
		return
	}
	best := k.pickBest()
	if best == nil {
		k.current = nil
		return
	}
	if best != k.current {
		if k.current != nil && k.current.state != jobDone && k.current.started {
			// Mid-copy preemption; the context was saved at slice end.
			k.current.state = jobReady
			k.emit(obs.KindPreempt, k.current.task.spec.Name, k.current.copyIndex, "")
		}
		k.current = best
		k.emit(obs.KindDispatch, best.task.spec.Name, best.copyIndex, "")
		// Context-switch overhead: the kernel occupies the CPU first.
		k.stats.KernelCycles += k.cfg.SwitchCycles
		if k.obsKernelCycles != nil {
			k.obsKernelCycles.Add(k.cfg.SwitchCycles)
		}
		k.kernelBusyUntil = k.sim.Now() + des.Time(k.cfg.SwitchCycles)*k.cyclePeriod
		if k.OnContextSwitch != nil {
			k.OnContextSwitch(k.sim.Now(), k.kernelBusyUntil)
		}
		best.chainEvent = k.sim.Schedule(k.kernelBusyUntil, des.PrioDispatch, best.runSliceFn)
		return
	}
	k.runSlice(best)
}

// startCopy initializes a fresh copy: context from the TCB template and
// the state region from the release snapshot (replica determinism).
//
//nlft:noalloc
func (k *Kernel) startCopy(j *job) {
	t := j.task
	var snap cpu.Snapshot
	snap.PC = t.entryPC
	snap.Regs[cpu.RegSP] = t.spec.StackStart + t.spec.StackWords*4
	k.proc.Restore(snap)
	k.procOwner = j
	for i, w := range j.dataSnapshot {
		k.mem.Poke(t.spec.DataStart+uint32(i)*4, w)
	}
	j.outputs = j.outputs[:0]
	j.cyclesUsed = 0
	j.started = true
	k.emit(obs.KindCopyStart, t.spec.Name, j.copyIndex, "")
}

// budgetCycles converts the task's per-copy budget to cycles.
//
//nlft:noalloc
func (k *Kernel) budgetCycles(t *tcb) uint64 {
	return uint64(t.spec.Budget / k.cyclePeriod)
}

// runSlice runs the current job on the CPU until the next simulation
// event, its budget, an exception, or copy completion.
//
//nlft:noalloc
func (k *Kernel) runSlice(j *job) {
	if k.failed || k.current != j || j.state == jobDone {
		return
	}
	now := k.sim.Now()
	if !j.started {
		k.startCopy(j)
	} else if j.state == jobReady && k.procOwner != j {
		// Resuming after a real context switch: another job (or a fresh
		// copy) used the processor meanwhile, so reload the saved context
		// from the TCB area.
		k.proc.Restore(j.ctx)
		k.procOwner = j
		k.emit(obs.KindResume, j.task.spec.Name, j.copyIndex, "")
	}
	j.state = jobRunning
	if k.cfg.UseMMU {
		k.mmu.SetRegions(j.task.regions)
	} else {
		k.mmu.Disable()
	}

	budget := k.budgetCycles(j.task)
	if j.cyclesUsed >= budget {
		k.handleDetectedError(j, MechBudgetTimer)
		return
	}
	budgetLeft := budget - j.cyclesUsed

	// Bound the slice by the next event strictly after now: all
	// same-instant events that could change this kernel's ready set
	// fired before this dispatch (they carry lower tie-break
	// priorities), and other components' same-instant events cannot
	// affect this CPU mid-slice.
	limit := k.sim.NextEventAfter(now)
	var sliceCycles uint64
	if limit == des.MaxTime {
		sliceCycles = budgetLeft
	} else {
		sliceCycles = uint64((limit - now) / k.cyclePeriod)
		if sliceCycles == 0 {
			sliceCycles = 1
		}
	}
	if sliceCycles > budgetLeft {
		sliceCycles = budgetLeft
	}

	ev, exc, used := k.slices.RunCycles(k.proc, sliceCycles, sliceSalt(j))
	j.cyclesUsed += used
	k.stats.TaskCycles += used
	if k.obsTaskCycles != nil {
		k.obsTaskCycles.Add(used)
	}
	end := now + des.Time(used)*k.cyclePeriod
	k.cpuBusyUntil = end

	switch {
	case exc != nil:
		// A hardware EDM trapped (scenario iii/iv of Figure 3). HALT in a
		// task is equally unexpected and treated as a detected error.
		j.pendingMech = excMechanism(exc.Kind)
		j.chainEvent = k.sim.Schedule(end, des.PrioKernel, j.errorFn)
	case ev.Sys == cpu.SysEnd:
		k.captureResult(j)
		j.chainEvent = k.sim.Schedule(end, des.PrioKernel, j.completeFn)
	case ev.Sys == cpu.SysYield:
		j.ctx = k.proc.Snapshot()
		j.state = jobReady
		j.chainEvent = k.sim.Schedule(end, des.PrioDispatch, j.resumeFn)
	case j.cyclesUsed >= budget:
		// Execution-time monitor fired (Table 1).
		j.pendingMech = MechBudgetTimer
		j.chainEvent = k.sim.Schedule(end, des.PrioKernel, j.errorFn)
	default:
		// Slice exhausted by an upcoming event; save context and let the
		// dispatcher decide after that event settles.
		j.ctx = k.proc.Snapshot()
		j.state = jobReady
		j.chainEvent = k.sim.Schedule(end, des.PrioDispatch, j.resumeFn)
	}
}

// dispatchIfCurrent continues j if it is still the best choice.
//
//nlft:noalloc
func (k *Kernel) dispatchIfCurrent(j *job) {
	if k.failed || j.state == jobDone {
		return
	}
	k.dispatch()
}

// captureResult reads the copy's result vector at slice end into the
// job's next result slot, reusing the slot's backing arrays. The slot is
// claimed (nresults advanced) only when copyComplete accepts the copy, so
// a discarded copy's data is simply overwritten by the next capture.
//
//nlft:noalloc
func (k *Kernel) captureResult(j *job) {
	t := j.task
	if j.nresults >= len(j.results) {
		//nlft:allow noalloc panic message on a state-machine bug; unreachable in a correct kernel
		panic(fmt.Sprintf("kernel: %d results for task %s", j.nresults+1, t.spec.Name))
	}
	res := &j.results[j.nresults]
	res.writes = append(res.writes[:0], j.outputs...)
	res.signature = k.proc.Signature
	res.dataImage = res.dataImage[:0]
	for i := uint32(0); i < t.spec.DataWords; i++ {
		res.dataImage = append(res.dataImage, k.mem.Peek(t.spec.DataStart+i*4))
	}
}

// timeForAnotherCopy checks the paper's deadline test: can one more copy
// (conservatively, a full budget) finish before the job's deadline?
//
//nlft:noalloc
func (k *Kernel) timeForAnotherCopy(j *job) bool {
	return k.sim.Now()+j.task.spec.Budget <= j.deadline
}

// handleDetectedError implements the recovery path for errors detected
// by hardware EDMs, the budget timer, or kernel checks: terminate the
// affected copy, restore the task context from the TCB, and start a new
// copy immediately if the deadline permits (Figure 3, scenarios iii/iv).
func (k *Kernel) handleDetectedError(j *job, m Mechanism) {
	if k.failed || j.state == jobDone {
		return
	}
	mechanism := m.String()
	k.countDetected(j.task.spec.Name, m)
	j.errorsDetected++
	k.emit(obs.KindErrorDetected, j.task.spec.Name, j.copyIndex, mechanism)

	if k.cfg.FailSilentOnError {
		k.emitOutcome(j, OutcomeOmission)
		k.failSilent("fail-silent node: error detected by " + mechanism)
		return
	}
	if j.task.spec.Criticality == NonCritical {
		k.shutdownTask(j, mechanism)
		return
	}
	// Discard the affected copy and restart it with a clean context.
	if k.cfg.NoContextRestore {
		// Ablation: resume the corrupted context instead of restoring
		// from the TCB. The copy continues from wherever the error left
		// the registers — §2.5 explains why this defeats recovery.
		j.ctx = k.proc.Snapshot()
		j.ctx.PC += 4 // skip the faulting instruction to avoid a hard wedge
		j.started = true
	} else {
		j.started = false
	}
	j.state = jobReady
	if j == k.current {
		k.current = nil
	}
	k.procOwner = nil
	if !k.timeForAnotherCopy(j) {
		k.omission(j, "no time to re-execute after "+mechanism)
		return
	}
	k.scheduleDispatch()
}

// copyComplete advances the TEM state machine after a copy finished
// normally (Figure 3). The copy's result sits in the job's next result
// slot, captured at slice end.
//
//nlft:noalloc
func (k *Kernel) copyComplete(j *job) {
	if k.failed || j.state == jobDone {
		return
	}
	t := j.task
	res := &j.results[j.nresults]
	if j.cyclesUsed > t.maxCopyCycles {
		t.maxCopyCycles = j.cyclesUsed
	}
	if t.obsCopyCycles != nil {
		t.obsCopyCycles.Observe(j.cyclesUsed)
	}
	if k.cfg.Obs.KeepsEvents() {
		//nlft:allow noalloc trace detail built only when the collector keeps events; the zero-alloc gates run detached or metrics-only
		k.emit(obs.KindCopyEnd, t.spec.Name, j.copyIndex, crcDetail(res.crc(t.crcBuf[:])))
	} else {
		// A metrics-only collector keeps no events and keys copy-end
		// counters by task, so the detail is never read.
		k.emit(obs.KindCopyEnd, t.spec.Name, j.copyIndex, "")
	}
	j.state = jobReady
	j.started = false
	if j == k.current {
		k.current = nil
	}

	// Control-flow signature check against the golden value (§2.7).
	if t.spec.ExpectedSignature != 0 && res.signature != t.spec.ExpectedSignature {
		k.handleDetectedError(j, MechSignature)
		return
	}

	if t.spec.Criticality == NonCritical || k.cfg.FailSilentOnError {
		// Non-critical tasks — and every task on a conventional
		// fail-silent node — run a single copy and commit directly:
		// fail-silent nodes rely on hardware EDMs alone, with no
		// time-redundant comparison.
		k.commit(j, res)
		return
	}

	j.nresults++
	switch j.nresults {
	case 1:
		j.copyIndex = 2
		k.scheduleDispatch()
	case 2:
		if k.cfg.AlwaysTriple {
			// Ablation: unconditional third copy (time-redundant TMR).
			j.copyIndex = 3
			k.scheduleDispatch()
			return
		}
		if k.resultsEqual(&j.results[0], &j.results[1]) {
			k.emit(obs.KindCompareMatch, t.spec.Name, 0, "")
			k.commit(j, &j.results[0])
			return
		}
		// Scenario ii: comparison detected an error; run a third copy if
		// the deadline allows, then vote.
		k.countDetected(t.spec.Name, MechComparison)
		j.errorsDetected++
		k.emit(obs.KindCompareMismatch, t.spec.Name, 0, "")
		if !k.timeForAnotherCopy(j) {
			k.omission(j, "no time for third copy")
			return
		}
		j.copyIndex = 3
		k.scheduleDispatch()
	case 3:
		// Majority vote. Any disagreement among the three copies is a
		// detected error (relevant in AlwaysTriple mode, where no
		// pairwise comparison ran earlier).
		firstTwoAgree := k.resultsEqual(&j.results[0], &j.results[1])
		if !(firstTwoAgree &&
			k.resultsEqual(&j.results[1], &j.results[2])) && j.errorsDetected == 0 {
			k.countDetected(t.spec.Name, MechVote)
			j.errorsDetected++
		}
		var winner *copyResult
		switch {
		case firstTwoAgree:
			winner = &j.results[0]
		case k.resultsEqual(&j.results[0], &j.results[2]):
			winner = &j.results[0]
		case k.resultsEqual(&j.results[1], &j.results[2]):
			winner = &j.results[1]
		}
		if winner == nil {
			k.emit(obs.KindVote, t.spec.Name, 0, "no majority")
			k.omission(j, "three divergent results")
			return
		}
		k.emit(obs.KindVote, t.spec.Name, 0, "majority found")
		k.commit(j, winner)
	default:
		//nlft:allow noalloc panic message on a state-machine bug; unreachable in a correct kernel
		panic(fmt.Sprintf("kernel: %d results for task %s", j.nresults, t.spec.Name))
	}
}

// resultsEqual compares two copy results under the configured scope.
//
//nlft:noalloc
func (k *Kernel) resultsEqual(a, b *copyResult) bool {
	if k.cfg.CompareOutputsOnly {
		if len(a.writes) != len(b.writes) {
			return false
		}
		for i := range a.writes {
			if a.writes[i] != b.writes[i] {
				return false
			}
		}
		return true
	}
	return a.equal(b)
}

// commit delivers a result: outputs to the environment, the winning
// state image to memory, and the state CRC to the TCB. Only here do
// results leave the node (§2.5: "the task result is delivered and the
// state data are only updated when two matching results have been
// produced").
//
//nlft:noalloc
func (k *Kernel) commit(j *job, res *copyResult) {
	t := j.task
	j.state = jobDone
	k.removeJob(j)
	k.sim.Cancel(j.deadlineEvent)
	for _, w := range res.writes {
		k.env.WriteOutput(w.port, w.value)
	}
	if t.spec.DataWords > 0 {
		for i, w := range res.dataImage {
			k.mem.Poke(t.spec.DataStart+uint32(i)*4, w)
		}
		t.stateImage = append(t.stateImage[:0], res.dataImage...)
		t.stateCRC = t.dataCRC(k.mem)
		t.stateCRCSet = true
	}
	outcome := OutcomeOK
	if j.errorsDetected > 0 {
		outcome = OutcomeMasked
		t.consecutiveErrors++
	} else {
		t.consecutiveErrors = 0
	}
	k.emit(obs.KindCommit, t.spec.Name, 0, outcome.String())
	k.emitOutcome(j, outcome)
	if t.consecutiveErrors >= k.cfg.PermanentThreshold {
		//nlft:allow noalloc permanent-fault suspicion message; reached only after consecutive error releases
		k.failSilent(fmt.Sprintf("suspected permanent fault: %d consecutive error releases of %s",
			t.consecutiveErrors, t.spec.Name))
		return
	}
	if j == k.current {
		k.current = nil
	}
	k.retireJob(j)
	k.scheduleDispatch()
}

// omission enforces an omission failure for the release: no result.
func (k *Kernel) omission(j *job, reason string) {
	t := j.task
	j.state = jobDone
	k.removeJob(j)
	k.sim.Cancel(j.deadlineEvent)
	if j == k.current {
		k.current = nil
	}
	t.consecutiveErrors++
	k.emit(obs.KindOmission, t.spec.Name, 0, reason)
	k.emitOutcome(j, OutcomeOmission)
	if t.consecutiveErrors >= k.cfg.PermanentThreshold {
		k.failSilent(fmt.Sprintf("suspected permanent fault: %d consecutive error releases of %s",
			t.consecutiveErrors, t.spec.Name))
		return
	}
	k.retireJob(j)
	k.scheduleDispatch()
}

// shutdownTask stops a non-critical task after a detected error (§2.2).
func (k *Kernel) shutdownTask(j *job, reason string) {
	t := j.task
	j.state = jobDone
	k.removeJob(j)
	k.sim.Cancel(j.deadlineEvent)
	if j == k.current {
		k.current = nil
	}
	t.alive = false
	k.emit(obs.KindTaskShutdown, t.spec.Name, 0, reason)
	k.emitOutcome(j, OutcomeTaskShutdown)
	k.retireJob(j)
	k.scheduleDispatch()
}

// deadlineCheck fires at the job's absolute deadline.
func (k *Kernel) deadlineCheck(j *job) {
	if k.failed || j.state == jobDone {
		return
	}
	k.omission(j, "deadline reached")
}

// emitOutcome counts the release outcome in Stats and the registry and
// invokes the outcome hook. It is the only place outcomes are counted,
// so the three accountings cannot disagree.
//
//nlft:noalloc
func (k *Kernel) emitOutcome(j *job, o Outcome) {
	switch o {
	case OutcomeOK:
		k.stats.OK++
	case OutcomeMasked:
		k.stats.Masked++
	case OutcomeOmission:
		k.stats.Omissions++
	case OutcomeTaskShutdown:
		k.stats.TaskShutdowns++
	}
	if k.cfg.Obs != nil {
		k.cfg.Obs.Counter("kernel.outcomes", j.task.spec.Name, o.String()).Inc()
	}
	if k.OnOutcome == nil {
		return
	}
	k.OnOutcome(OutcomeInfo{
		Task:           j.task.spec.Name,
		Release:        j.release,
		SettledAt:      k.sim.Now(),
		Outcome:        o,
		ErrorsDetected: j.errorsDetected,
	})
}

// failSilent shuts the node down (§2.2 strategy 3 and §2.5 permanent
// suspicion): the node stops producing outputs until restarted at the
// system level.
func (k *Kernel) failSilent(reason string) {
	if k.failed {
		return
	}
	k.failed = true
	k.failReason = reason
	k.current = nil
	// Truncate rather than nil out the ready set: the backing array is
	// retained so a checkpoint restore (internal/fault's fork engine) can
	// rebuild it without allocating.
	k.ready = k.ready[:0]
	k.emit(obs.KindFailSilent, "", 0, reason)
	if k.OnFailSilent != nil {
		k.OnFailSilent(k.sim.Now(), reason)
	}
}

// ObservedWCET reports the worst-case execution time of one copy of the
// named task observed so far — the measured C fed into the §2.8
// schedulability analysis (sched.Task.C). ok is false if the task is
// unknown or has not completed a copy yet.
func (k *Kernel) ObservedWCET(task string) (wcet des.Time, ok bool) {
	t, found := k.tasks[task]
	if !found || t.maxCopyCycles == 0 {
		return 0, false
	}
	return des.Time(t.maxCopyCycles) * k.cyclePeriod, true
}

// ForceFailSilent lets the campaign driver model errors detected during
// kernel execution (§2.2: "errors detected during execution of the
// real-time kernel should result in the node becoming silent").
func (k *Kernel) ForceFailSilent(reason string) { k.failSilent(reason) }

// LoadPort implements cpu.IOBus: reads return the release-time latch.
// The latch is a slice parallel to the spec's InputPorts; the linear
// scan beats a map for the handful of ports a task declares and keeps
// the I/O path allocation-free.
//
//nlft:noalloc
func (k *Kernel) LoadPort(port uint32) (uint32, error) {
	if k.current == nil {
		//nlft:allow noalloc error on a bus access with no running task; unreachable from kernel-driven execution
		return 0, fmt.Errorf("kernel: input port %d read with no task running", port)
	}
	for i, p := range k.current.task.spec.InputPorts {
		if p == port {
			return k.current.inputLatch[i], nil
		}
	}
	//nlft:allow noalloc error on an undeclared port; a correct task image never takes it
	return 0, fmt.Errorf("kernel: task %s reads undeclared input port %d",
		k.current.task.spec.Name, port)
}

// StorePort implements cpu.IOBus: writes are buffered in the running
// copy's result vector (end-to-end checked delivery).
//
//nlft:noalloc
func (k *Kernel) StorePort(port, value uint32) error {
	if k.current == nil {
		//nlft:allow noalloc error on a bus access with no running task; unreachable from kernel-driven execution
		return fmt.Errorf("kernel: output port %d written with no task running", port)
	}
	k.current.outputs = append(k.current.outputs, portWrite{port: port, value: value})
	return nil
}

var _ cpu.IOBus = (*Kernel)(nil)
