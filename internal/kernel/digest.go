package kernel

import (
	"repro/internal/des"
)

// This file computes the kernel's forward digest: a 64-bit summary of
// every piece of state that can influence the remainder of a run. The
// fork engine (internal/fault) compares a forked trial's digest at a
// checkpoint boundary against the golden run's digest captured at the
// same boundary; equality proves the trial's future is the golden
// future, so the trial's outcome can be classified from golden results
// without simulating the suffix.
//
// What is deliberately EXCLUDED, and why each exclusion is sound:
//
//   - Pure measurements never read back by the model: kernel Stats,
//     cpu.CPU Cycles/Retired, cpu.Memory CorrectedErrors, MMU
//     Violations, tcb releaseCount/maxCopyCycles. They record the path
//     taken, not state that steers future behaviour, and the campaign
//     accounts for them separately (the golden suffix contributes zero
//     detections, omissions and writes deltas beyond the spliced ones —
//     it is fault-free by construction).
//   - failReason: implied by the failed bit, which is folded.
//   - job pendingMech: only ever read by an error-handler continuation,
//     and every site that arms that continuation writes pendingMech
//     immediately before scheduling it — a stale value is never read.
//   - job ctx/cyclesUsed/outputs for a copy that has not started:
//     startCopy overwrites all three before any read.
//   - result slots at index ≥ nresults: captureResult fully rewrites a
//     slot before copyComplete reads it. A slot captured by a slice
//     that spans a checkpoint boundary is still unread there, but its
//     content — the copy's outputs, the processor signature and the
//     task's data words, all read at the slice's end — is state the
//     digest folds (the copy owns the processor), and nothing changes
//     it before the boundary: slices never cross a pending event, so
//     no event fires inside one.
//   - MMU regions/enable: rewritten by every runSlice before the CPU
//     executes, so the values seen at a boundary are never read again.
//   - The processor context (registers, PC, flags, signature) whenever
//     it is dead: procOwner is not a started, not-done job still in the
//     ready queue (see liveOwner). The processor's context is read only
//     by runSlice, by the captureResult and slice-end Snapshot of that
//     same slice, and by the NoContextRestore ablation's Snapshot in
//     handleDetectedError, which runs inside runSlice or in the error or
//     completion continuation a slice armed at its own end — and every
//     one of them runs after a context load unless a live owner is
//     resuming or was just running. The loads that give a new owner a
//     fresh context are:
//       - startCopy, for every copy with started == false — including a
//         recycled record that is already procOwner (acquireJob clears
//         started), so a stale owner identity never skips the load;
//       - Restore(j.ctx) in runSlice, for a started job resuming with
//         procOwner != j;
//       - handleDetectedError, which sets procOwner = nil, so the
//         restarted (or, under NoContextRestore, resumed) copy takes one
//         of the two loads above.
//     A dead context is therefore overwritten before anything reads it.
//     Only the pending ALU fault mask survives a load (cpu.Restore
//     leaves it set), so that alone is folded (cpu.LatentDigest), and a
//     dead procOwner folds as one tag whatever record it names: its
//     identity is only ever compared against a started job resuming,
//     which a dead owner never is.
//   - Settled jobs (jobDone, no live events) and the free-list order:
//     acquireJob resets every field a new incarnation reads, so any
//     settled record is interchangeable with any other. Folding them
//     would make the digest depend on pool-rotation identity and
//     spuriously block reconvergence.
//
// Job identity is folded positionally, not by record: live jobs are
// folded in ready-queue order, and current/procOwner as positions in
// that order (or a small tag for nil / settled / dead). Two kernels
// whose live jobs have identical contents in identical queue positions
// behave identically regardless of which pooled records host those
// jobs.

// kmix is the SplitMix64 finalizer (see cpu.digestMix; duplicated to
// keep the hot digest path free of cross-package calls).
//
//nlft:noalloc
func kmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// kfold chains one value into a running digest, order-sensitively.
//
//nlft:noalloc
func kfold(d, v uint64) uint64 { return kmix(d ^ kmix(v)) }

// kfoldBool folds a flag.
//
//nlft:noalloc
func kfoldBool(d uint64, b bool) uint64 {
	if b {
		return kfold(d, 1)
	}
	return kfold(d, 0)
}

// kfoldEvent folds whether a handle is live and, if so, when it fires.
//
//nlft:noalloc
func kfoldEvent(d uint64, s *des.Simulator, e des.Event) uint64 {
	if at, ok := s.ScheduledAt(e); ok {
		d = kfold(d, 1)
		return kfold(d, uint64(at))
	}
	return kfold(d, 0)
}

// jobDigest folds one live job's forward-relevant state.
//
//nlft:noalloc
func (k *Kernel) jobDigest(j *job) uint64 {
	var d uint64
	d = kfold(d, uint64(j.release))
	d = kfold(d, uint64(j.deadline))
	d = kfold(d, uint64(j.state))
	d = kfold(d, uint64(j.copyIndex))
	d = kfold(d, uint64(j.nresults))
	for ri := 0; ri < j.nresults; ri++ {
		r := &j.results[ri]
		d = kfold(d, uint64(len(r.writes)))
		for _, w := range r.writes {
			d = kfold(d, uint64(w.port)<<32|uint64(w.value))
		}
		d = kfold(d, uint64(len(r.dataImage)))
		for _, w := range r.dataImage {
			d = kfold(d, uint64(w))
		}
		d = kfold(d, uint64(r.signature))
	}
	d = kfoldBool(d, j.started)
	if j.started {
		// ctx, cyclesUsed and outputs only carry forward state for a
		// copy in flight; startCopy resets all three for a fresh copy.
		for _, r := range j.ctx.Regs {
			d = kfold(d, uint64(r))
		}
		d = kfold(d, uint64(j.ctx.PC))
		var fl uint64
		if j.ctx.Flags.Z {
			fl |= 1
		}
		if j.ctx.Flags.N {
			fl |= 2
		}
		if j.ctx.Flags.C {
			fl |= 4
		}
		if j.ctx.Flags.V {
			fl |= 8
		}
		d = kfold(d, fl)
		d = kfold(d, uint64(j.ctx.Signature))
		d = kfold(d, j.cyclesUsed)
		d = kfold(d, uint64(len(j.outputs)))
		for _, w := range j.outputs {
			d = kfold(d, uint64(w.port)<<32|uint64(w.value))
		}
	}
	d = kfold(d, uint64(len(j.inputLatch)))
	for _, v := range j.inputLatch {
		d = kfold(d, uint64(v))
	}
	d = kfold(d, uint64(len(j.dataSnapshot)))
	for _, v := range j.dataSnapshot {
		d = kfold(d, uint64(v))
	}
	d = kfold(d, uint64(j.errorsDetected))
	d = kfoldEvent(d, k.sim, j.deadlineEvent)
	d = kfoldEvent(d, k.sim, j.chainEvent)
	return d
}

// liveOwner reports procOwner's ready-queue position when the processor
// holds a live context — procOwner is a started, not-done job still in
// k.ready, so the next slice resumes it straight from the registers —
// and -1 when the context is dead (the next copy start or resume loads
// a fresh one before anything reads it).
//
//nlft:noalloc
func (k *Kernel) liveOwner() int {
	o := k.procOwner
	if o == nil || !o.started || o.state == jobDone {
		return -1
	}
	for i, j := range k.ready {
		if j == o {
			return i
		}
	}
	return -1
}

// ForwardDigest folds the forward-relevant state of the whole node —
// simulator clock and pending-event multiset, processor, memory,
// scheduler, and every live job — into a 64-bit digest. An event
// matching skip is excluded from the pending fold (pass the zero Event
// to exclude nothing); the fork engine passes its placeholder injection
// event on the golden side, which the forked trial has replaced with a
// real injection that has already fired by the time digests are
// compared.
//
// The busy-until horizons are clamped to the current instant before
// folding: once a horizon is in the past, its exact value can never be
// observed again (both are only compared against the advancing clock),
// and a forked trial's horizons legitimately differ from the golden
// run's in the past even when the machines have reconverged.
//
//nlft:noalloc
func (k *Kernel) ForwardDigest(skip des.Event) uint64 {
	now := k.sim.Now()
	var d uint64
	d = kfold(d, uint64(now))
	pd, pc := k.sim.PendingDigest(skip)
	d = kfold(d, pd)
	d = kfold(d, uint64(pc))
	owner := k.liveOwner()
	if owner >= 0 {
		d = kfold(d, k.proc.StateDigest())
	} else {
		d = kfold(d, k.proc.LatentDigest())
	}
	d = kfold(d, k.mem.StateDigest())

	d = kfoldBool(d, k.failed)
	d = kfoldBool(d, k.dispatchPending)
	kb, cb := k.kernelBusyUntil, k.cpuBusyUntil
	if kb < now {
		kb = now
	}
	if cb < now {
		cb = now
	}
	d = kfold(d, uint64(kb))
	d = kfold(d, uint64(cb))

	for _, t := range k.order {
		d = kfoldBool(d, t.alive)
		d = kfold(d, uint64(t.stateCRC))
		d = kfoldBool(d, t.stateCRCSet)
		d = kfold(d, uint64(len(t.stateImage)))
		for _, w := range t.stateImage {
			d = kfold(d, uint64(w))
		}
		d = kfold(d, uint64(t.lastRelease))
		d = kfoldBool(d, t.hasReleased)
		d = kfoldBool(d, t.pendingTrigger)
		d = kfold(d, uint64(t.consecutiveErrors))
	}

	d = kfold(d, uint64(len(k.ready)))
	curIdx := -1
	for i, j := range k.ready {
		d = kfold(d, k.jobDigest(j))
		if j == k.current {
			curIdx = i
		}
	}
	if k.current != nil && curIdx < 0 {
		curIdx = -2 // settled but not yet re-dispatched: also interchangeable
	}
	d = kfold(d, uint64(uint32(int32(curIdx))))
	d = kfold(d, uint64(uint32(int32(owner))))
	return d
}
