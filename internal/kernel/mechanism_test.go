package kernel

import (
	"slices"
	"testing"

	"repro/internal/cpu"
)

// TestMechanismVocabulary pins the enum to the names traces, metrics and
// trial records carry: the values are declared in strictly ascending
// name order, so a set lists its names sorted, and every hardware
// exception maps to the mechanism of its own name.
func TestMechanismVocabulary(t *testing.T) {
	var all MechanismSet
	for m := Mechanism(0); m < NumMechanisms; m++ {
		if m > 0 && (m-1).String() >= m.String() {
			t.Errorf("mechanism %d %q does not sort after %q", m, m, m-1)
		}
		all |= 1 << m
	}
	if got := all.Names(); len(got) != int(NumMechanisms) || !slices.IsSorted(got) {
		t.Errorf("Names of every mechanism = %v", got)
	}
	if got := MechanismSet(0).Names(); got != nil {
		t.Errorf("Names of the empty set = %v, want nil", got)
	}
	for k := cpu.ExcIllegalOpcode; k <= cpu.ExcHalt; k++ {
		if got := excMechanism(k).String(); got != k.String() {
			t.Errorf("exception %v maps to mechanism %q", k, got)
		}
	}
}
