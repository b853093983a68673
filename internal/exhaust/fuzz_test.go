package exhaust

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/fault"
)

// FuzzPlacementEquivalence drives arbitrary (target, locus, bit, time)
// placements through the fork-engine exploration path and asserts the
// classification equals a from-scratch single-trial run of the same
// placement — the per-placement form of the engine's soundness claim,
// with the fuzzer hunting the checkpoint-selection, convergence, and
// dedup corner cases the fixed tests might miss. Out-of-domain inputs
// are clamped into the sampler's support so every execution is a
// meaningful comparison.
func FuzzPlacementEquivalence(f *testing.F) {
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{Periods: 3, Compute: 8})
	_, end := w.InjectionWindow()
	dataBase, dataWords := w.DataRange()
	codeBase, codeWords := w.CodeRange()

	f.Add(uint8(0), uint8(6), uint8(3), uint16(0), int64(0))
	f.Add(uint8(1), uint8(0), uint8(4), uint16(0), int64(des.Microsecond))
	f.Add(uint8(2), uint8(0), uint8(31), uint16(0), int64(250*des.Microsecond))
	f.Add(uint8(3), uint8(0), uint8(9), uint16(0), int64(999*des.Microsecond))
	f.Add(uint8(4), uint8(0), uint8(7), uint16(3), int64(end)-1)
	f.Add(uint8(5), uint8(0), uint8(0), uint16(1), int64(des.Millisecond/2))

	targets := fault.AllTargets()
	f.Fuzz(func(t *testing.T, targetIdx, reg, bit uint8, word uint16, atNs int64) {
		at := des.Time(atNs)
		if at < 0 {
			at = -at
		}
		at %= end
		pl := fault.Fault{At: at, Target: targets[int(targetIdx)%len(targets)]}
		switch pl.Target {
		case fault.TargetRegister:
			pl.Reg = int(reg)%13 + 1
			pl.Bit = uint(bit) % 32
		case fault.TargetPC, fault.TargetSP:
			pl.Bit = uint(bit) % 32
		case fault.TargetALU:
			pl.Mask = 1 << (uint(bit) % 32)
		case fault.TargetMemoryData:
			pl.Addr = dataBase + uint32(word)%dataWords*4
			pl.Bit = uint(bit) % 32
		case fault.TargetMemoryCode:
			pl.Addr = codeBase + uint32(word)%codeWords*4
			pl.Bit = uint(bit) % 32
		}

		got, err := VerifyFaults(w, Config{Parallelism: 1}, []fault.Fault{pl})
		if err != nil {
			t.Fatal(err)
		}
		want := verifyScratch(t, w, Config{}, []fault.Fault{pl}, nil)
		if !reflect.DeepEqual(got.Records[0], want.Records[0]) {
			t.Fatalf("placement %v: exhaust %+v, from-scratch %+v",
				pl, got.Records[0], want.Records[0])
		}
		if !reflect.DeepEqual(got.Violations, want.Violations) {
			t.Fatalf("placement %v: violations %v, from-scratch %v",
				pl, got.Violations, want.Violations)
		}
	})
}
