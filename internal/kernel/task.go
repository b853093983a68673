// Package kernel simulates the paper's fault-tolerant real-time kernel:
// fixed-priority preemptive scheduling of periodic tasks on the simulated
// COTS processor (internal/cpu), with the light-weight NLFT error
// handling of §2: temporal error masking (double execution, comparison,
// third copy and majority vote), CPU-context restore from the task
// control block after EDM-detected errors, execution-time budgets,
// deadline enforcement with omission failures, data-integrity CRCs on
// task state, and end-to-end checked delivery of task outputs.
//
// The kernel is driven by a discrete-event simulator (internal/des):
// task execution is co-simulated by running the CPU interpreter in
// slices bounded by the next simulation event, so preemption, budgets
// and deadlines are exact in simulated time.
package kernel

import (
	"fmt"
	"hash/crc32"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/obs"
)

// Criticality classes of §2.2.
type Criticality int

const (
	// NonCritical tasks run once per release; a detected error shuts the
	// task down, leaving the rest of the node running.
	NonCritical Criticality = iota + 1
	// Critical tasks are executed under temporal error masking.
	Critical
)

// String names the class.
func (c Criticality) String() string {
	switch c {
	case NonCritical:
		return "non-critical"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("criticality(%d)", int(c))
	}
}

// TaskSpec declares a task to the kernel.
type TaskSpec struct {
	// Name identifies the task.
	Name string
	// Program is the task's assembled code; it is loaded at its origin.
	Program *cpu.Program
	// Entry is the label where a copy starts executing.
	Entry string
	// Period is the release period (for sporadic tasks, the minimal
	// inter-arrival time).
	Period des.Time
	// Sporadic tasks are not released periodically; the application
	// releases them with Kernel.Trigger (§2.8: fixed-priority scheduling
	// "allows both periodic and sporadic task executions"). Period acts
	// as the minimal inter-arrival time: earlier triggers are deferred.
	Sporadic bool
	// Deadline is the relative deadline (≤ Period).
	Deadline des.Time
	// Offset delays the first release.
	Offset des.Time
	// Priority: higher runs first. Must be unique within a kernel.
	Priority int
	// Criticality selects TEM (Critical) or single execution.
	Criticality Criticality
	// Budget is the execution-time monitor limit for one copy.
	Budget des.Time
	// InputPorts are latched from the environment at release, so every
	// TEM copy observes identical inputs (replica determinism, §2.6).
	InputPorts []uint32
	// OutputPorts are the ports the task may write; writes are buffered
	// per copy and committed only after a successful compare/vote.
	OutputPorts []uint32
	// DataStart/DataWords is the task's state region (checked by CRC and
	// restored between copies).
	DataStart uint32
	DataWords uint32
	// StackStart/StackWords is the task's stack region; SP starts at the
	// top.
	StackStart uint32
	StackWords uint32
	// ExpectedSignature, when nonzero, is the golden control-flow
	// signature a correct copy must produce (§2.7). Zero disables the
	// absolute check (copies are still compared against each other).
	ExpectedSignature uint32
}

// Validate checks the spec's invariants.
func (s TaskSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("kernel: task without name")
	}
	if s.Program == nil {
		return fmt.Errorf("kernel: task %s without program", s.Name)
	}
	if _, err := s.Program.Entry(s.Entry); err != nil {
		return fmt.Errorf("kernel: task %s: %w", s.Name, err)
	}
	if s.Period <= 0 {
		return fmt.Errorf("kernel: task %s: period %v", s.Name, s.Period)
	}
	if s.Deadline <= 0 || s.Deadline > s.Period {
		return fmt.Errorf("kernel: task %s: deadline %v not in (0, period]", s.Name, s.Deadline)
	}
	if s.Budget <= 0 {
		return fmt.Errorf("kernel: task %s: budget %v", s.Name, s.Budget)
	}
	if s.Offset < 0 {
		return fmt.Errorf("kernel: task %s: negative offset", s.Name)
	}
	if s.Criticality != Critical && s.Criticality != NonCritical {
		return fmt.Errorf("kernel: task %s: bad criticality %v", s.Name, s.Criticality)
	}
	if s.StackWords == 0 {
		return fmt.Errorf("kernel: task %s: no stack", s.Name)
	}
	return nil
}

// Outcome classifies one release of a task.
type Outcome int

// Release outcomes, in the paper's terms.
const (
	// OutcomeOK: results delivered, no error observed.
	OutcomeOK Outcome = iota + 1
	// OutcomeMasked: one or more errors were detected and masked by TEM;
	// correct results were still delivered on time.
	OutcomeMasked
	// OutcomeOmission: no result delivered by the deadline (detected
	// error without time to recover, or three disagreeing results).
	OutcomeOmission
	// OutcomeTaskShutdown: a non-critical task was stopped after an error.
	OutcomeTaskShutdown
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeMasked:
		return "masked"
	case OutcomeOmission:
		return "omission"
	case OutcomeTaskShutdown:
		return "task-shutdown"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// portWrite is one buffered output-port write.
type portWrite struct {
	port  uint32
	value uint32
}

// copyResult captures everything TEM compares between two task copies:
// the output write sequence, the final state-region image, and the
// control-flow signature.
type copyResult struct {
	writes    []portWrite
	dataImage []uint32
	signature uint32
}

// equal reports whether two copies produced identical results.
func (r *copyResult) equal(other *copyResult) bool {
	if r.signature != other.signature {
		return false
	}
	if len(r.writes) != len(other.writes) {
		return false
	}
	for i := range r.writes {
		if r.writes[i] != other.writes[i] {
			return false
		}
	}
	if len(r.dataImage) != len(other.dataImage) {
		return false
	}
	for i := range r.dataImage {
		if r.dataImage[i] != other.dataImage[i] {
			return false
		}
	}
	return true
}

// crc returns a checksum over the result for traces, encoding each word
// through buf (at least 4 bytes). The incremental crc32.Update form gives
// the NewIEEE digest's checksum; buf is the TCB's scratch (see crcBuf)
// because a stack buffer passed to crc32.Update escapes.
//
//nlft:noalloc
func (r *copyResult) crc(buf []byte) uint32 {
	var crc uint32
	for _, w := range r.writes {
		crc = crcWord(crc, buf, w.port)
		crc = crcWord(crc, buf, w.value)
	}
	for _, w := range r.dataImage {
		crc = crcWord(crc, buf, w)
	}
	return crcWord(crc, buf, r.signature)
}

// crcWord folds one little-endian word into crc, encoding it through buf.
//
//nlft:noalloc
func crcWord(crc uint32, buf []byte, v uint32) uint32 {
	buf[0] = byte(v)
	buf[1] = byte(v >> 8)
	buf[2] = byte(v >> 16)
	buf[3] = byte(v >> 24)
	return crc32.Update(crc, crc32.IEEETable, buf[:4])
}

// crcDetail is a copy-end event's detail, "crc=" and the checksum as
// eight lower-case hex digits; the string is its only allocation.
func crcDetail(crc uint32) string {
	const digits = "0123456789abcdef"
	b := [12]byte{'c', 'r', 'c', '='}
	for i := 0; i < 8; i++ {
		b[4+i] = digits[crc>>(28-4*i)&0xf]
	}
	return string(b[:])
}

// tcb is the task control block.
type tcb struct {
	spec    TaskSpec
	entryPC uint32
	regions []cpu.Region
	// releaseFn and deferredTriggerFn are the task's bound release
	// callbacks, created once at AddTask so periodic releases and
	// deferred sporadic activations re-arm events without allocating a
	// closure per period.
	releaseFn         func()
	deferredTriggerFn func()
	// freeJobs holds settled job records for recycling: a release reuses
	// one instead of allocating, so a steady-state hyperperiod runs
	// allocation-free. At most two records rotate per task (the old job
	// can still be live at its deadline when the next release fires).
	freeJobs []*job
	// allJobs lists every job record ever allocated for this task, in
	// allocation order. The checkpoint/fork engine uses it as the stable
	// enumeration of the task's job pool: snapshots index jobs by their
	// position here, so a restore can rewind each record in place without
	// breaking the identity that the record's bound continuation
	// callbacks and any queued events rely on.
	allJobs []*job
	// stateCRC protects the task's state region between activations
	// (data-integrity check, Table 1); stateImage is the committed copy
	// used to recover from a CRC mismatch (data duplication, §2.6).
	stateCRC     uint32
	stateCRCSet  bool
	stateImage   []uint32
	alive        bool
	releaseCount uint64
	// lastRelease enforces the sporadic minimal inter-arrival time;
	// pendingTrigger marks a deferred sporadic activation.
	lastRelease    des.Time
	hasReleased    bool
	pendingTrigger bool
	// maxCopyCycles tracks the worst observed execution of one copy —
	// the measured WCET fed into the schedulability analysis (§2.8).
	maxCopyCycles uint64
	// obsCopyCycles is the task's telemetry histogram of per-copy cycle
	// counts (nil when the kernel has no collector).
	obsCopyCycles *obs.Histogram
	// consecutiveErrors counts releases in a row that saw detected
	// errors; crossing the kernel's threshold suggests a permanent fault.
	consecutiveErrors int
	// crcBuf is the word-encoding scratch of dataCRC and of the task's
	// copy-result crc. It lives in the TCB (already heap-resident)
	// because a stack buffer passed to crc32.Update escapes and would
	// cost one allocation per call.
	crcBuf [4]byte
}

// dataCRC computes the CRC of the task's state region. The incremental
// crc32.Update form yields the same checksum as a NewIEEE digest without
// allocating one per call (this runs at every release and commit).
func (t *tcb) dataCRC(mem *cpu.Memory) uint32 {
	var crc uint32
	for i := uint32(0); i < t.spec.DataWords; i++ {
		crc = crcWord(crc, t.crcBuf[:], mem.Peek(t.spec.DataStart+i*4))
	}
	return crc
}

// jobState tracks one release through the TEM state machine.
type jobState int

const (
	jobReady jobState = iota + 1
	jobRunning
	jobDone
)

// job is one activation (release) of a task. Job records are recycled
// through tcb.freeJobs; every slice-typed field keeps its backing array
// across incarnations and is reset with [:0].
type job struct {
	task     *tcb
	release  des.Time
	deadline des.Time
	state    jobState
	// copyIndex is 1, 2 or 3 (third copy only after an error).
	copyIndex int
	// results collects completed copies' results (at most three under
	// TEM); nresults counts the filled entries. The fixed array plus the
	// retained writes/dataImage backings make result capture
	// allocation-free in steady state.
	results  [3]copyResult
	nresults int
	// ctx is the saved CPU context while preempted mid-copy.
	ctx cpu.Snapshot
	// started reports whether ctx holds a live preempted context (true)
	// or the copy must start fresh (false).
	started bool
	// cyclesUsed accumulates this copy's consumed cycles (budget check).
	cyclesUsed uint64
	// inputLatch holds the environment inputs captured at release,
	// parallel to spec.InputPorts (replica determinism, §2.6).
	inputLatch []uint32
	// outputs buffers the current copy's port writes.
	outputs []portWrite
	// dataSnapshot is the state region at release, restored before every
	// copy so replicas are deterministic.
	dataSnapshot []uint32
	// errorsDetected counts detected errors during this release.
	errorsDetected int
	// deadlineEvent is the pending deadline-check event.
	deadlineEvent des.Event
	// chainEvent is the job's most recent continuation event (dispatch,
	// run-slice, copy-complete or error-handler). Exactly one such event
	// is in flight per job; a job record is only recycled once it is no
	// longer scheduled, so a queued continuation can never observe a new
	// incarnation of its job.
	chainEvent des.Event
	// Bound continuation callbacks, created once when the job record is
	// first allocated and reused across incarnations, so the TEM state
	// machine re-arms events without per-release closure allocations.
	deadlineFn func()
	runSliceFn func()
	resumeFn   func()
	completeFn func()
	errorFn    func()
	// pendingMech carries the detection mechanism from the slice that
	// armed errorFn to the handler it fires.
	pendingMech Mechanism
}
