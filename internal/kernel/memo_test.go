package kernel

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/obs"
)

// TestSliceKeyCompleteness perturbs every input of a slice one at a
// time — each register, the PC, each flag, the signature, the pending
// ALU mask, one RAM word, one latched input, the slice bound, the task
// and the MMU switch — and requires each to change the slice key, and
// undoing it to restore the key.
func TestSliceKeyCompleteness(t *testing.T) {
	sim, _, k, _ := buildPreemptive(t)
	for k.current == nil || k.current.task.spec.Name != "short" || !k.current.started {
		if !sim.Step() {
			t.Fatal("the short task never ran")
		}
	}
	j, p := k.current, k.proc
	if len(j.inputLatch) == 0 || !k.mmu.Enabled() {
		t.Fatal("the short task has no latched input or runs without the MMU")
	}
	const bound = 100
	key := func(j *job, bound uint64) uint64 { return cpu.SliceKey(p, bound, sliceSalt(j)) }
	base := key(j, bound)
	other := *j
	other.task = k.tasks["long"]
	perturb := func(name string, do, undo func()) {
		t.Helper()
		do()
		if key(j, bound) == base {
			t.Errorf("%s: the key did not change", name)
		}
		undo()
		if key(j, bound) != base {
			t.Errorf("%s: undoing it did not restore the key", name)
		}
	}
	for r := range p.Regs {
		flip := func() { p.Regs[r] ^= 1 << (r % 32) }
		perturb("register", flip, flip)
	}
	flipPC := func() { p.PC ^= 4 }
	perturb("pc", flipPC, flipPC)
	for _, f := range []*bool{&p.Flags.Z, &p.Flags.N, &p.Flags.C, &p.Flags.V} {
		flip := func() { *f = !*f }
		perturb("flag", flip, flip)
	}
	flipSig := func() { p.Signature ^= 1 << 9 }
	perturb("signature", flipSig, flipSig)
	perturb("alu mask", func() { p.InjectALUFault(1 << 3) }, func() { p.InjectALUFault(0) })
	const word = stackB + 4
	ram := func() { k.mem.Poke(word, k.mem.Peek(word)^1<<17) }
	perturb("ram word", ram, ram)
	latch := func() { j.inputLatch[0] ^= 1 << 30 }
	perturb("input latch", latch, latch)
	perturb("mmu", k.mmu.Disable, func() { k.mmu.SetRegions(j.task.regions) })
	if key(j, bound+1) == base {
		t.Error("slice bound: the key did not change")
	}
	if key(&other, bound) == base {
		t.Error("task: the key did not change")
	}
}

// TestSliceReplayLockstep runs the preemptive workload, with a fresh
// input latched at every release, on a kernel with a slice memo and on
// a plain one in lockstep, event by event, for four releases of the
// long task, injecting the same fault into both in each release, while
// a preempted long copy waits with its live context in the processor:
// a register flip (caught by the comparison, then
// outvoted by a third copy), a pending ALU mask, an ECC flip in the
// short task's code (pending until its next fetch), a PC flip out of
// the task's code (an MMU trap that restarts the copy), a single-bit
// ECC flip in the long task's loop (corrected when the copy resumes)
// and a multi-bit one on a word no task reads, which stays pending to
// the end, so every later slice starts with a flip pending. It then
// runs a second memo kernel, whose slices the first one recorded,
// against a fresh plain one. After every event the processor state
// (cycle and retire counters included), every RAM word, the corrected
// errors, the pending flips, the pages the next checkpoint copies, the
// forward digest and the running copy's buffered outputs must agree,
// and at the end the committed writes, events and metrics.
func TestSliceReplayLockstep(t *testing.T) {
	const period = 2 * des.Millisecond
	memo := &cpu.SliceMemo{Limit: 1 << 12}
	faults := []func(k *Kernel){
		func(k *Kernel) { k.proc.FlipRegister(6, 3) },
		func(k *Kernel) { k.proc.InjectALUFault(1 << 4) },
		func(k *Kernel) { k.mem.FlipBit(codeB+4, 2) },
		func(k *Kernel) {
			// The copy resumes from the live context or, once another
			// copy has run, from the saved one: flip both.
			k.proc.FlipPC(14)
			k.current.ctx.PC ^= 1 << 14
		},
		func(k *Kernel) { k.mem.FlipBit(codeA+8, 11) },
		func(k *Kernel) {
			k.mem.FlipBit(0x6000, 1)
			k.mem.FlipBit(0x6000, 30)
		},
	}
	lockstep := func(name string) cpu.SliceStats {
		t.Helper()
		simR, envR, kR, colR := buildPreemptive(t)
		simM, envM, kM, colM := buildPreemptive(t)
		kM.SetSliceMemo(memo)
		// Every release latches a new input, so only a release's own
		// copies repeat its short task's slices.
		envR.volatileInputs, envM.volatileInputs = true, true
		before := memo.Stats
		var stR, stM cpu.MemoryState
		var cR, cM cpu.CPUState
		next := 0
		for step := 0; simR.Now() < des.Time(len(faults))*period; step++ {
			if j := kR.current; next < len(faults) && simR.Now() >= des.Time(next)*period && j != nil &&
				j.task.spec.Name == "long" && j.started && j.state == jobReady && kR.procOwner == j {
				faults[next](kR)
				faults[next](kM)
				next++
			}
			okR, okM := simR.Step(), simM.Step()
			if okR != okM || simR.Now() != simM.Now() {
				t.Fatalf("%s, event %d: the runs diverged in time (%v, %v)", name, step, simR.Now(), simM.Now())
			}
			kR.proc.SnapshotState(&cR)
			kM.proc.SnapshotState(&cM)
			if cR != cM || kR.mmu.Violations != kM.mmu.Violations {
				t.Fatalf("%s, event %d at %v: processor state differs", name, step, simR.Now())
			}
			copied := kR.mem.Snap.PagesCopied
			kR.mem.Snapshot(&stR)
			kM.mem.Snapshot(&stM)
			if kR.mem.Snap.PagesCopied-copied != kM.mem.Snap.PagesCopied-copied {
				t.Fatalf("%s, event %d at %v: the checkpoint copies %d pages, plain %d", name, step, simR.Now(),
					kM.mem.Snap.PagesCopied-copied, kR.mem.Snap.PagesCopied-copied)
			}
			if kR.mem.CorrectedErrors != kM.mem.CorrectedErrors || !maps.Equal(kR.mem.PendingFlips(), kM.mem.PendingFlips()) {
				t.Fatalf("%s, event %d at %v: %d corrected errors and pending flips %v, plain %d and %v", name, step, simR.Now(),
					kM.mem.CorrectedErrors, kM.mem.PendingFlips(), kR.mem.CorrectedErrors, kR.mem.PendingFlips())
			}
			for a := uint32(0); a < kR.mem.SizeBytes(); a += 4 {
				if kR.mem.Peek(a) != kM.mem.Peek(a) {
					t.Fatalf("%s, event %d at %v: RAM word %#x differs", name, step, simR.Now(), a)
				}
			}
			if kR.ForwardDigest(des.Event{}) != kM.ForwardDigest(des.Event{}) {
				t.Fatalf("%s, event %d at %v: forward digests differ", name, step, simR.Now())
			}
			if (kR.current == nil) != (kM.current == nil) ||
				kR.current != nil && !slices.Equal(kR.current.outputs, kM.current.outputs) {
				t.Fatalf("%s, event %d at %v: the running copies' outputs differ", name, step, simR.Now())
			}
			if !okR {
				break
			}
		}
		if !slices.Equal(envR.writes, envM.writes) {
			t.Errorf("%s: committed writes %v, plain %v", name, envM.writes, envR.writes)
		}
		if !slices.Equal(colR.Events(), colM.Events()) || colR.Registry().Digest() != colM.Registry().Digest() {
			t.Errorf("%s: the event streams or metrics differ", name)
		}
		if next < len(faults) {
			t.Fatalf("%s: %d of %d faults injected", name, next, len(faults))
		}
		if det := kR.Stats().ErrorsDetected; det[MechComparison] == 0 || det[MechMMUViolation] == 0 ||
			len(eventsOf(colR, obs.KindVote)) == 0 {
			t.Errorf("%s: detections %v; the faults should be compared, voted on and trapped", name, det)
		}
		if kR.mem.CorrectedErrors < 2 || len(kR.mem.PendingFlips()) == 0 {
			t.Errorf("%s: %d corrected errors, pending flips %v; want both single-bit flips corrected and the multi-bit one pending",
				name, kR.mem.CorrectedErrors, kR.mem.PendingFlips())
		}
		d := memo.Stats
		return cpu.SliceStats{
			InterpretedSlices:  d.InterpretedSlices - before.InterpretedSlices,
			InterpretedCycles:  d.InterpretedCycles - before.InterpretedCycles,
			ReplayedSlices:     d.ReplayedSlices - before.ReplayedSlices,
			ReplayedCycles:     d.ReplayedCycles - before.ReplayedCycles,
			FlipReplayedSlices: d.FlipReplayedSlices - before.FlipReplayedSlices,
		}
	}
	first := lockstep("recording")
	recorded := uint64(memo.Len())
	if first.ReplayedSlices == 0 {
		t.Errorf("the recording run replayed no slice (%+v); its TEM copies repeat each other", first)
	}
	// The second run makes the first run's slices: it replays every one
	// the first recorded or replayed, and of those that started with a
	// flip pending, every one whose flip-free entry the first run
	// learned the read set of and whose flips that set lets through.
	second := lockstep("replaying")
	if second.InterpretedSlices+second.ReplayedSlices != first.InterpretedSlices+first.ReplayedSlices ||
		second.InterpretedSlices > first.InterpretedSlices-recorded ||
		second.FlipReplayedSlices <= first.FlipReplayedSlices {
		t.Errorf("replaying run %+v after recording run %+v (%d recorded)", second, first, recorded)
	}
	t.Logf("recording run %+v, replaying run %+v, %d entries", first, second, recorded)
}
