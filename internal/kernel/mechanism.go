package kernel

import (
	"math/bits"

	"repro/internal/cpu"
)

// Mechanism is one of Table 1's error-detection mechanisms, as the
// kernel counts them. The set is closed and declared in name order, so
// ascending values are ascending names.
type Mechanism uint8

// Detection mechanisms.
const (
	MechAddressError     Mechanism = iota // cpu.ExcAddressError
	MechBudgetTimer                       // execution-time monitor
	MechBusError                          // cpu.ExcBusError
	MechComparison                        // TEM copies disagree
	MechDivZero                           // cpu.ExcDivZero
	MechECC                               // corrected by the memory (cpu.Memory.CorrectedErrors)
	MechECCUncorrectable                  // cpu.ExcECCError
	MechHalt                              // cpu.ExcHalt inside a task
	MechIllegalOpcode                     // cpu.ExcIllegalOpcode
	MechMMUViolation                      // cpu.ExcMMUViolation
	MechSignature                         // control-flow signature mismatch
	MechStateCRC                          // state-region CRC mismatch at release
	MechVote                              // the three-copy vote saw a disagreement
	NumMechanisms
)

var mechanismNames = [NumMechanisms]string{
	"address-error", "budget-timer", "bus-error", "comparison", "div-zero", "ecc",
	"ecc-uncorrectable", "halt", "illegal-opcode", "mmu-violation", "signature",
	"state-crc", "vote",
}

// String is the mechanism's name in traces, metrics and trial records.
func (m Mechanism) String() string { return mechanismNames[m] }

// excMechanism is the mechanism that detects a hardware exception; its
// name is the exception kind's.
//
//nlft:noalloc
func excMechanism(k cpu.ExcKind) Mechanism {
	switch k {
	case cpu.ExcIllegalOpcode:
		return MechIllegalOpcode
	case cpu.ExcAddressError:
		return MechAddressError
	case cpu.ExcBusError:
		return MechBusError
	case cpu.ExcMMUViolation:
		return MechMMUViolation
	case cpu.ExcDivZero:
		return MechDivZero
	case cpu.ExcECCError:
		return MechECCUncorrectable
	case cpu.ExcHalt:
		return MechHalt
	}
	panic("kernel: unknown exception kind")
}

// MechanismSet is a set of mechanisms: bit m holds Mechanism m.
type MechanismSet uint16

// Every mechanism has a bit: this constant overflows otherwise.
const _ MechanismSet = 1 << (NumMechanisms - 1)

// Grown is the set of mechanisms whose count in now exceeds the one in
// before; with before all zero, the mechanisms that fired at all.
//
//nlft:noalloc
func Grown(before, now *[NumMechanisms]uint64) MechanismSet {
	var s MechanismSet
	for m := range now {
		if now[m] > before[m] {
			s |= 1 << m
		}
	}
	return s
}

// Has reports whether m is in the set.
func (s MechanismSet) Has(m Mechanism) bool { return s&(1<<m) != 0 }

// Names lists the set's mechanism names in ascending order, or nil for
// the empty set.
func (s MechanismSet) Names() []string {
	if s == 0 {
		return nil
	}
	names := make([]string, 0, bits.OnesCount16(uint16(s)))
	for m := Mechanism(0); m < NumMechanisms; m++ {
		if s.Has(m) {
			names = append(names, m.String())
		}
	}
	return names
}
