package fault

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/kernel"
)

// contextLive reports whether the processor context at boundary k is
// folded into the forward digest: a register flip on the restored
// boundary state moves the digest off the golden one exactly when the
// context is live (kernel.ForwardDigest drops a dead context).
func contextLive(s *ForkSession, k int) bool {
	s.Restore(k)
	golden := s.Digest()
	s.Inst.Kernel.Proc().FlipRegister(6, 7)
	return s.Digest() != golden
}

// inCopy reports whether a task copy holds the processor at boundary k
// — the digest-independent view of where live contexts must be.
func inCopy(s *ForkSession, k int) bool {
	s.Restore(k)
	return s.Inst.Kernel.Activity() == kernel.ActivityTask
}

// TestDeadContextCutoffDifferential: with boundaries every ~2 µs, many
// land inside task copies (live context) and many in idle time (dead
// context). A register/PC/SP-only spec list aimed just before both
// kinds of boundary runs on a one-slot runner at that spacing, and every
// record must equal the from-scratch oracle's (ScratchTrial, no
// cutoff) — the dead-context rule may only end a trial early, never
// change its outcome. Every in-copy boundary must
// fold its live context; the kernel's TestForwardDigestDeadContext
// covers a live context parked at a pending event, which this
// single-task workload never reaches at a quiescent boundary.
func TestDeadContextCutoffDifferential(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	const interval = 2 * des.Microsecond
	s, err := NewForkSession(w, interval, false)
	if err != nil {
		t.Fatal(err)
	}
	var busy, idle []int
	liveSeen := 0
	for k := 1; k < s.Checkpoints(); k++ {
		if !inCopy(s, k) {
			idle = append(idle, k)
			continue
		}
		busy = append(busy, k)
		if contextLive(s, k) {
			liveSeen++
		}
	}
	if len(busy) == 0 || len(idle) == 0 {
		t.Fatalf("%d in-copy and %d idle boundaries; the test needs both", len(busy), len(idle))
	}
	if liveSeen != len(busy) {
		t.Fatalf("only %d of %d in-copy boundaries fold a live context", liveSeen, len(busy))
	}

	targets := []Target{TargetRegister, TargetPC, TargetSP}
	var specs []TrialSpec
	add := func(ks []int, n int) {
		for i := 0; i < n; i++ {
			k := ks[i*len(ks)/n]
			f := Fault{At: s.CheckpointAt(k) - 500*des.Nanosecond,
				Target: targets[len(specs)%len(targets)], Bit: uint(len(specs) * 7 % 32)}
			if f.Target == TargetRegister {
				f.Reg = 1 + len(specs)%13
			}
			specs = append(specs, TrialSpec{Fault: f})
		}
	}
	add(busy, min(48, len(busy)))
	add(idle, 48)

	r, err := NewShardRunner(w, CampaignConfig{SnapshotInterval: interval, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, _, err := ScratchTrial(w, spec, golden, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("trial %d (%v): cutoff %+v, scratch %+v", i, spec.Fault, got[i], want)
		}
	}
	t.Logf("%d in-copy (live) / %d idle boundaries; %d planned trials agree",
		len(busy), len(idle), len(specs))
}

// TestIdleFlipConvergesWithoutTaskCycles: a register flip at an idle
// instant whose next boundary precedes the next release reconverges at
// that boundary — the trial simulates no task cycles at all — and is
// classified exactly as a from-scratch run classifies it.
func TestIdleFlipConvergesWithoutTaskCycles(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	s, err := NewForkSession(w, 100*des.Microsecond, false)
	if err != nil {
		t.Fatal(err)
	}
	// A boundary pair with no copy in flight at the first and no golden
	// task execution between them: the whole span is idle time.
	b := -1
	for k := 1; k+1 < s.Checkpoints() && b < 0; k++ {
		s.Restore(k + 1)
		after := s.Inst.Kernel.Stats().TaskCycles
		if !inCopy(s, k) && s.Inst.Kernel.Stats().TaskCycles == after {
			b = k
		}
	}
	if b < 0 {
		t.Fatal("no idle boundary span")
	}
	at := (s.CheckpointAt(b) + s.CheckpointAt(b+1)) / 2
	if got := s.Select(at); got != b {
		t.Fatalf("fault at %v forks from checkpoint %d, want %d", at, got, b)
	}
	s.Restore(b)
	base := s.Inst.Kernel.Stats().TaskCycles

	spec := TrialSpec{Fault: Fault{At: at, Target: TargetRegister, Reg: 6, Bit: 7}}
	rec, err := s.RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Inst.Kernel.Stats().TaskCycles - base; d != 0 {
		t.Errorf("idle flip at %v simulated %d task cycles, want 0", at, d)
	}
	golden, err := GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ScratchTrial(w, spec, golden, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, want) {
		t.Errorf("forked record %+v, from-scratch %+v", rec, want)
	}
}
