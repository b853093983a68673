package kernel

// This file is the kernel half of the checkpoint/fork campaign engine
// (see internal/fault): Snapshot/Restore capture and rewind the complete
// mutable kernel state in place, and ForwardDigest summarizes the
// forward-relevant state so a forked trial can detect that it has
// reconverged with the golden run.
//
// Restore is identity-preserving by construction. All continuation
// callbacks (dispatchFn, the per-job deadline/run/resume/complete/error
// functions, the per-task release functions) close over specific heap
// objects; queued simulator events hold those same closures. A restore
// therefore never replaces a tcb or job record — it copies the captured
// values back into the records that already exist, enumerated through
// k.order and tcb.allJobs, so every bound closure and every rewound
// event handle still points at the right object.

import (
	"repro/internal/cpu"
	"repro/internal/des"
)

// jobRef names a job record as (task index in k.order, job index in
// tcb.allJobs). The zero-value-unfriendly sentinel {-1, -1} means nil.
type jobRef struct {
	task int32
	job  int32
}

var nilJobRef = jobRef{task: -1, job: -1}

// resultSnap captures one TEM copy result by value.
type resultSnap struct {
	writes    []portWrite
	dataImage []uint32
	signature uint32
}

// jobSnap captures one job record's mutable state.
type jobSnap struct {
	release        des.Time
	deadline       des.Time
	state          jobState
	copyIndex      int
	nresults       int
	results        [3]resultSnap
	ctx            cpu.Snapshot
	started        bool
	cyclesUsed     uint64
	inputLatch     []uint32
	outputs        []portWrite
	dataSnapshot   []uint32
	errorsDetected int
	deadlineEvent  des.Event //nlft:allow eventhandle checkpoint copy of the job's own handle: restored wholesale with the event pool, whose generation rewind revalidates exactly this handle
	chainEvent     des.Event //nlft:allow eventhandle checkpoint copy of the job's own handle: restored wholesale with the event pool, whose generation rewind revalidates exactly this handle
	pendingMech    Mechanism
}

// tcbSnap captures one task control block's mutable state. freeJobs
// holds indices into tcb.allJobs.
type tcbSnap struct {
	stateCRC          uint32
	stateCRCSet       bool
	stateImage        []uint32
	alive             bool
	releaseCount      uint64
	lastRelease       des.Time
	hasReleased       bool
	pendingTrigger    bool
	maxCopyCycles     uint64
	consecutiveErrors int
	freeJobs          []int32
	jobs              []jobSnap
}

// KernelState is preallocated scratch for Kernel.Snapshot/Restore. Like
// des.SimState, it is only meaningful for the instance it was captured
// from. The nested slices reach steady-state capacity after the first
// capture and are reused thereafter.
type KernelState struct {
	proc cpu.CPUState
	mem  cpu.MemoryState
	mmu  cpu.MMUState

	kernelBusyUntil des.Time
	cpuBusyUntil    des.Time
	failed          bool
	failReason      string
	dispatchPending bool

	current   jobRef
	procOwner jobRef
	ready     []jobRef

	stats Stats

	tasks []tcbSnap
}

// CPUBusyUntil reports the end of the last CPU slice committed before
// the capture. The fork engine's checkpoint-selection rule needs it: a
// checkpoint is only a valid fork base for a fault at time t if no
// already-simulated slice extends past t.
func (st *KernelState) CPUBusyUntil() des.Time { return st.cpuBusyUntil }

// Failed reports whether the node had gone fail-silent at capture time.
func (st *KernelState) Failed() bool { return st.failed }

// jobIndex locates j in t.allJobs. Job pools hold at most a handful of
// records, so the linear scan beats any index structure.
//
//nlft:noalloc
func jobIndex(t *tcb, j *job) int32 {
	for i, cand := range t.allJobs {
		if cand == j {
			return int32(i)
		}
	}
	return -1
}

// refOf resolves a job pointer to its (task, job) reference.
//
//nlft:noalloc
func (k *Kernel) refOf(j *job) jobRef {
	if j == nil {
		return nilJobRef
	}
	for ti, t := range k.order {
		if t == j.task {
			return jobRef{task: int32(ti), job: jobIndex(t, j)}
		}
	}
	return nilJobRef
}

// deref resolves a reference back to the job record, or nil.
//
//nlft:noalloc
func (k *Kernel) deref(r jobRef) *job {
	if r.task < 0 || r.job < 0 {
		return nil
	}
	return k.order[r.task].allJobs[r.job]
}

// Snapshot copies the kernel's complete mutable state — processor,
// memory, MMU, scheduler queues, per-task and per-job TEM state and
// stats — into st. Static wiring (specs, programs, bound callbacks, the
// observability hookup) is not captured; it never changes after Start.
// The collector, the kernel's event stream, is rewound by its recorder
// (obs.Suffixes.Rewind).
//
//nlft:noalloc
func (k *Kernel) Snapshot(into *KernelState) {
	k.proc.SnapshotState(&into.proc)
	k.mem.Snapshot(&into.mem)
	k.mmu.Snapshot(&into.mmu)

	into.kernelBusyUntil = k.kernelBusyUntil
	into.cpuBusyUntil = k.cpuBusyUntil
	into.failed = k.failed
	into.failReason = k.failReason
	into.dispatchPending = k.dispatchPending

	into.current = k.refOf(k.current)
	into.procOwner = k.refOf(k.procOwner)
	into.ready = into.ready[:0]
	for _, j := range k.ready {
		into.ready = append(into.ready, k.refOf(j))
	}

	into.stats = k.stats

	// Grow the per-task scratch with zero-value appends so existing
	// entries keep their nested slice backings (a wholesale copy or a
	// composite-literal append would discard them).
	for len(into.tasks) < len(k.order) {
		into.tasks = append(into.tasks, tcbSnap{})
	}
	into.tasks = into.tasks[:len(k.order)]
	for ti, t := range k.order {
		ts := &into.tasks[ti]
		ts.stateCRC = t.stateCRC
		ts.stateCRCSet = t.stateCRCSet
		ts.stateImage = append(ts.stateImage[:0], t.stateImage...)
		ts.alive = t.alive
		ts.releaseCount = t.releaseCount
		ts.lastRelease = t.lastRelease
		ts.hasReleased = t.hasReleased
		ts.pendingTrigger = t.pendingTrigger
		ts.maxCopyCycles = t.maxCopyCycles
		ts.consecutiveErrors = t.consecutiveErrors
		ts.freeJobs = ts.freeJobs[:0]
		for _, j := range t.freeJobs {
			ts.freeJobs = append(ts.freeJobs, jobIndex(t, j))
		}
		for len(ts.jobs) < len(t.allJobs) {
			ts.jobs = append(ts.jobs, jobSnap{})
		}
		ts.jobs = ts.jobs[:len(t.allJobs)]
		for ji, j := range t.allJobs {
			js := &ts.jobs[ji]
			js.release = j.release
			js.deadline = j.deadline
			js.state = j.state
			js.copyIndex = j.copyIndex
			js.nresults = j.nresults
			for ri := range j.results {
				r := &j.results[ri]
				rs := &js.results[ri]
				rs.writes = append(rs.writes[:0], r.writes...)
				rs.dataImage = append(rs.dataImage[:0], r.dataImage...)
				rs.signature = r.signature
			}
			js.ctx = j.ctx
			js.started = j.started
			js.cyclesUsed = j.cyclesUsed
			js.inputLatch = append(js.inputLatch[:0], j.inputLatch...)
			js.outputs = append(js.outputs[:0], j.outputs...)
			js.dataSnapshot = append(js.dataSnapshot[:0], j.dataSnapshot...)
			js.errorsDetected = j.errorsDetected
			js.deadlineEvent = j.deadlineEvent
			js.chainEvent = j.chainEvent
			js.pendingMech = j.pendingMech
		}
	}
}

// Restore rewinds the kernel to a state captured from the same instance
// with Snapshot. Job records allocated after the capture (tcb.allJobs
// grew) are reset to an inert, settled state and parked on the free
// list: nothing in the restored simulator references them (their events
// were rewound away with the event pool), and parking them keeps the
// record pool bounded across many forked trials.
//
//nlft:noalloc
func (k *Kernel) Restore(from *KernelState) {
	k.proc.RestoreState(&from.proc)
	k.mem.Restore(&from.mem)
	k.mmu.Restore(&from.mmu)

	k.kernelBusyUntil = from.kernelBusyUntil
	k.cpuBusyUntil = from.cpuBusyUntil
	k.failed = from.failed
	k.failReason = from.failReason
	k.dispatchPending = from.dispatchPending

	k.stats = from.stats

	for ti, t := range k.order {
		ts := &from.tasks[ti]
		t.stateCRC = ts.stateCRC
		t.stateCRCSet = ts.stateCRCSet
		t.stateImage = append(t.stateImage[:0], ts.stateImage...)
		t.alive = ts.alive
		t.releaseCount = ts.releaseCount
		t.lastRelease = ts.lastRelease
		t.hasReleased = ts.hasReleased
		t.pendingTrigger = ts.pendingTrigger
		t.maxCopyCycles = ts.maxCopyCycles
		t.consecutiveErrors = ts.consecutiveErrors
		for ji := range ts.jobs {
			j := t.allJobs[ji]
			js := &ts.jobs[ji]
			j.release = js.release
			j.deadline = js.deadline
			j.state = js.state
			j.copyIndex = js.copyIndex
			j.nresults = js.nresults
			for ri := range js.results {
				r := &j.results[ri]
				rs := &js.results[ri]
				r.writes = append(r.writes[:0], rs.writes...)
				r.dataImage = append(r.dataImage[:0], rs.dataImage...)
				r.signature = rs.signature
			}
			j.ctx = js.ctx
			j.started = js.started
			j.cyclesUsed = js.cyclesUsed
			j.inputLatch = append(j.inputLatch[:0], js.inputLatch...)
			j.outputs = append(j.outputs[:0], js.outputs...)
			j.dataSnapshot = append(j.dataSnapshot[:0], js.dataSnapshot...)
			j.errorsDetected = js.errorsDetected
			j.deadlineEvent = js.deadlineEvent
			j.chainEvent = js.chainEvent
			j.pendingMech = js.pendingMech
		}
		t.freeJobs = t.freeJobs[:0]
		for _, ji := range ts.freeJobs {
			t.freeJobs = append(t.freeJobs, t.allJobs[ji])
		}
		// Jobs born after the capture: settle and park for reuse.
		for ji := len(ts.jobs); ji < len(t.allJobs); ji++ {
			j := t.allJobs[ji]
			j.state = jobDone
			j.deadlineEvent = des.Event{}
			j.chainEvent = des.Event{}
			t.freeJobs = append(t.freeJobs, j)
		}
	}

	k.ready = k.ready[:0]
	for _, r := range from.ready {
		k.ready = append(k.ready, k.deref(r))
	}
	k.current = k.deref(from.current)
	k.procOwner = k.deref(from.procOwner)
}
