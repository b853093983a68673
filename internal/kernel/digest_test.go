package kernel

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/des"
)

// flipContextBit flips one bit of the processor context: registers
// 0..NumRegs-1 (RegSP among them) and, for reg == NumRegs, the PC.
func flipContextBit(p *cpu.CPU, reg int, bit uint) {
	if reg == cpu.NumRegs {
		p.FlipPC(bit)
		return
	}
	p.FlipRegister(reg, bit)
}

// TestForwardDigestDeadContext pins the dead-context rule of
// ForwardDigest: with no copy in flight the processor context is
// overwritten by the next copy start before anything reads it, so
// register, PC and SP flips must not move the digest (and must not move
// the future either); a pending ALU fault survives the context load and
// must move it; and a copy cut mid-slice keeps its context live.
func TestForwardDigestDeadContext(t *testing.T) {
	const horizon = 2 * des.Millisecond
	sim, env, k, _ := buildPreemptive(t)

	// Step to the first idle instant: no current job, no committed slice
	// beyond now, and a dead context.
	var at des.Time
	for at = 5 * des.Microsecond; at < horizon; at += 5 * des.Microsecond {
		if err := sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if k.current == nil && k.cpuBusyUntil <= at && k.Activity() == ActivityIdle && k.liveOwner() < 0 {
			break
		}
	}
	if at >= horizon {
		t.Fatal("no idle instant with a dead context before the horizon")
	}
	if k.procOwner == nil {
		t.Fatal("idle instant has no previous owner; the test would not cover a dead owner record")
	}

	base := k.ForwardDigest(des.Event{})
	moved := 0
	for reg := 0; reg <= cpu.NumRegs; reg++ {
		for bit := uint(0); bit < 32; bit++ {
			flipContextBit(k.proc, reg, bit)
			if k.ForwardDigest(des.Event{}) != base {
				if moved == 0 {
					t.Errorf("t=%v: flipping reg %d bit %d moved the digest of a dead context", at, reg, bit)
				}
				moved++
			}
			flipContextBit(k.proc, reg, bit)
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d context bit flips moved a dead-context digest", moved, (cpu.NumRegs+1)*32)
	}

	// Equal digests must mean equal futures: a flipped dead context
	// replays the golden continuation exactly.
	var cpSim des.SimState
	var cpKern KernelState
	sim.Snapshot(&cpSim)
	k.Snapshot(&cpKern)
	prefix := len(env.writes)
	if err := sim.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	golden := append([]portWrite(nil), env.writes[prefix:]...)
	goldenEnd := k.ForwardDigest(des.Event{})
	for _, f := range []struct {
		reg int
		bit uint
	}{{6, 7}, {cpu.RegSP, 3}, {cpu.NumRegs, 13}, {0, 31}} {
		sim.Restore(&cpSim)
		k.Restore(&cpKern)
		env.writes = env.writes[:prefix]
		flipContextBit(k.proc, f.reg, f.bit)
		if err := sim.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		if failed, reason := k.Failed(); failed {
			t.Fatalf("flip reg %d bit %d at idle: node failed: %s", f.reg, f.bit, reason)
		}
		got := env.writes[prefix:]
		if len(got) != len(golden) {
			t.Fatalf("flip reg %d bit %d: %d writes after idle, want %d", f.reg, f.bit, len(got), len(golden))
		}
		for i := range got {
			if got[i] != golden[i] {
				t.Fatalf("flip reg %d bit %d: write %d = %+v, want %+v", f.reg, f.bit, i, got[i], golden[i])
			}
		}
		if end := k.ForwardDigest(des.Event{}); end != goldenEnd {
			t.Errorf("flip reg %d bit %d: end digest %#x, want %#x", f.reg, f.bit, end, goldenEnd)
		}
	}

	// The pending ALU fault survives the next context load.
	sim.Restore(&cpSim)
	k.Restore(&cpKern)
	k.proc.InjectALUFault(1 << 4)
	if k.ForwardDigest(des.Event{}) == base {
		t.Error("a pending ALU fault at an idle instant did not move the digest")
	}

	// A copy cut mid-slice by a pending event keeps a live context.
	sim2, _, k2, _ := buildPreemptive(t)
	probed := false
	sim2.Schedule(10*des.Microsecond, des.PrioObserver, func() {
		probed = true
		if k2.liveOwner() < 0 {
			t.Fatalf("t=%v: expected the long copy's context to be live", sim2.Now())
		}
		live := k2.ForwardDigest(des.Event{})
		k2.proc.FlipRegister(6, 7)
		if k2.ForwardDigest(des.Event{}) == live {
			t.Error("a register flip in a live context did not move the digest")
		}
		k2.proc.FlipRegister(6, 7)
	})
	if err := sim2.RunUntil(20 * des.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("mid-copy probe never fired")
	}
}
