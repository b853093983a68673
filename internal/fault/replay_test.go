package fault

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// repeatHeavySpecs places faults where TEM copies repeat each other's
// CPU slices: at the middle of every gap between the workload's
// kernel-activity windows (a copy running, or the processor idle
// before the next release) and just after each dispatch, each instant
// with a pending ALU mask, a register flip (compared, then outvoted by
// a third copy), a PC flip within the code and one out of it (a trap
// that restarts the copy). It
// returns the specs and how many of their instants find the processor
// running a task and idle.
func repeatHeavySpecs(t *testing.T, w Workload, s *ForkSession) (specs []TrialSpec, task, idle int) {
	t.Helper()
	start, end := w.InjectionWindow()
	wins := s.ActivityWindows()
	var at []des.Time
	for i := 0; i+1 < len(wins); i++ {
		for _, a := range []des.Time{wins[i].End + des.Microsecond, wins[i].End + (wins[i+1].Start-wins[i].End)/2} {
			if a >= start && a < end && a < wins[i+1].Start {
				at = append(at, a)
			}
		}
	}
	probe, err := w.New()
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range at {
		if err := probe.Sim.RunUntil(a); err != nil {
			t.Fatal(err)
		}
		switch probe.Kernel.Activity() {
		case kernel.ActivityTask:
			task++
		case kernel.ActivityIdle:
			idle++
		}
		specs = append(specs,
			TrialSpec{Fault: Fault{At: a, Target: TargetALU, Mask: 1 << (k * 7 % 32)}},
			TrialSpec{Fault: Fault{At: a, Target: TargetRegister, Reg: []int{2, 4, 6}[k%3], Bit: uint(k * 5 % 32)}},
			TrialSpec{Fault: Fault{At: a, Target: TargetPC, Bit: uint(2 + k%4)}},
			TrialSpec{Fault: Fault{At: a, Target: TargetPC, Bit: 14}})
	}
	return specs, task, idle
}

// memFlipSpecs places a single-bit ECC flip in the task's code and one
// in its state words at n instants spread over the injection window
// and at each of the given ones, cycling through the words and bits.
// Most are pending when a copy starts a slice it, or the golden run,
// already ran, so the slice replays its flip-free entry and applies the
// correction.
func memFlipSpecs(w Workload, n int, at []des.Time) []TrialSpec {
	start, end := w.InjectionWindow()
	for i := 0; i < n; i++ {
		at = append(at, start+(end-start)*des.Time(i)/des.Time(n))
	}
	codeBase, codeWords := w.CodeRange()
	dataBase, dataWords := w.DataRange()
	var specs []TrialSpec
	for k, a := range at {
		specs = append(specs,
			TrialSpec{Fault: Fault{At: a, Target: TargetMemoryCode, Addr: codeBase + 4*uint32(k*7%int(codeWords)), Bit: uint(k * 11 % 32)}},
			TrialSpec{Fault: Fault{At: a, Target: TargetMemoryData, Addr: dataBase + 4*uint32(k%int(dataWords)), Bit: uint(k * 5 % 32)}})
	}
	return specs
}

// TestSliceReplayDifferential runs repeat-heavy placements twice
// through two fork sessions, one without a collector and one with a
// metrics-and-events collector, on the gate workload and on its MMU
// variant. The placements include single-bit ECC flips in code and
// state words at many instants (memFlipSpecs). Both sessions replay CPU
// slices from their slice memos, slices that start with a flip pending
// among them, and the second pass replays nearly all of them; every
// record must equal the from-scratch oracle's, which never replays, and
// the collecting session's registry digest and event stream must equal
// the oracle collector's, trial by trial.
func TestSliceReplayDifferential(t *testing.T) {
	for _, cfg := range []StdWorkloadConfig{{ECC: true}, {ECC: true, UseMMU: true}} {
		name := "ecc"
		if cfg.UseMMU {
			name = "ecc-mmu"
		}
		t.Run(name, func(t *testing.T) {
			w := NewStdWorkload(cfg)
			golden, err := GoldenWrites(w)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := newForkSession(w, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			full, err := newForkSession(w, obs.NewCollector(""), 0)
			if err != nil {
				t.Fatal(err)
			}
			specs, task, idle := repeatHeavySpecs(t, w, plain)
			if task == 0 || idle == 0 {
				t.Fatalf("%d placements mid-copy and %d idle; want both", task, idle)
			}
			var at []des.Time
			for _, spec := range specs {
				at = append(at, spec.Fault.At)
			}
			specs = append(specs, memFlipSpecs(w, 97, slices.Compact(at))...)
			mechs := map[string]int{}
			before := plain.SliceStats()
			for pass := 0; pass < 2; pass++ {
				for i, spec := range specs {
					col := obs.NewCollector("")
					want, _, err := ScratchTrial(w, spec, golden, col)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range []*ForkSession{plain, full} {
						got, err := s.RunTrial(spec)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("pass %d, trial %d (%v): record %+v, from-scratch %+v", pass, i, spec.Fault, got, want)
						}
					}
					if got, want := full.Col.Registry().Digest(), col.Registry().Digest(); got != want {
						t.Errorf("pass %d, trial %d (%v): registry digest %#x, from-scratch %#x", pass, i, spec.Fault, got, want)
					}
					if got, want := full.Col.Events(), col.Events(); !slices.Equal(got, want) {
						t.Errorf("pass %d, trial %d (%v): %d events (digest %#x), from-scratch %d (digest %#x)",
							pass, i, spec.Fault, len(got), obs.DigestEvents(got), len(want), obs.DigestEvents(want))
					}
					for _, m := range want.Mechanisms {
						mechs[m]++
					}
				}
			}
			if mechs["comparison"] == 0 || mechs["illegal-opcode"]+mechs["address-error"]+mechs["bus-error"]+mechs["mmu-violation"] == 0 ||
				mechs["ecc"] == 0 {
				t.Errorf("mechanisms %v: want comparisons, trapped copies and corrected flips", mechs)
			}
			st := plain.SliceStats()
			replayed, interpreted := st.ReplayedSlices-before.ReplayedSlices, st.InterpretedSlices-before.InterpretedSlices
			flipped := st.FlipReplayedSlices - before.FlipReplayedSlices
			if replayed <= interpreted || flipped == 0 {
				t.Errorf("the plain session replayed %d slices (%d with a flip pending) and interpreted %d; the placements repeat slices",
					replayed, flipped, interpreted)
			}
			t.Logf("%d specs (%d instants mid-copy, %d idle); mechanisms %v; plain session replayed %d slices (%d with a flip pending), interpreted %d",
				len(specs), task, idle, mechs, replayed, flipped, interpreted)
		})
	}
}
