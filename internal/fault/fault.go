// Package fault provides fault models and fault-injection campaigns for
// the simulated NLFT kernel, standing in for the heavy-ion and
// software-implemented fault injection the paper's prototype studies
// used. A campaign injects single transient faults (bit flips in CPU
// registers, the PC, ALU results, or memory words) at random instants
// into a running workload, classifies each run against a golden run, and
// estimates the paper's dependability parameters: error-detection
// coverage C_D and the conditional probabilities P_T (masked by TEM),
// P_OM (omission) and P_FS (fail-silent), with confidence intervals.
package fault

import (
	"fmt"
	"strings"

	"repro/internal/des"
)

// Target selects where a fault strikes.
type Target int

// Fault targets.
const (
	// TargetRegister flips one bit of a general-purpose register.
	TargetRegister Target = iota + 1
	// TargetPC flips one bit of the program counter.
	TargetPC
	// TargetSP flips one bit of the stack pointer.
	TargetSP
	// TargetALU corrupts the next ALU result (adder/multiplier fault).
	TargetALU
	// TargetMemoryData flips a bit in a task's state region.
	TargetMemoryData
	// TargetMemoryCode flips a bit in a task's code region.
	TargetMemoryCode
)

// String names the target.
func (t Target) String() string {
	switch t {
	case TargetRegister:
		return "register"
	case TargetPC:
		return "pc"
	case TargetSP:
		return "sp"
	case TargetALU:
		return "alu"
	case TargetMemoryData:
		return "mem-data"
	case TargetMemoryCode:
		return "mem-code"
	default:
		return fmt.Sprintf("target(%d)", int(t))
	}
}

// NumTargets is the number of injectable targets; valid Target values
// are 1..NumTargets, so a [NumTargets + 1]T array indexes directly by
// Target (guarded by TestEnumCardinalities).
const NumTargets = int(TargetMemoryCode)

// AllTargets lists every injectable target.
func AllTargets() []Target {
	return []Target{TargetRegister, TargetPC, TargetSP, TargetALU,
		TargetMemoryData, TargetMemoryCode}
}

// ParseTargets parses a comma-separated list of target names (as
// Target.String renders them; whitespace around a name is ignored). A
// blank list means the default, all targets, and returns nil; an empty
// item or an unknown name is an error.
func ParseTargets(list string) ([]Target, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []Target
	for _, item := range strings.Split(list, ",") {
		name := strings.TrimSpace(item)
		if name == "" {
			return nil, fmt.Errorf("fault: empty target name in %q", list)
		}
		n := len(out)
		for _, t := range AllTargets() {
			if t.String() == name {
				out = append(out, t)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("fault: unknown target %q", name)
		}
	}
	return out, nil
}

// Fault is a single transient fault to inject.
type Fault struct {
	// At is the injection instant.
	At des.Time
	// Target selects the fault location class.
	Target Target
	// Reg is the register index for TargetRegister.
	Reg int
	// Bit is the bit position to flip (register, PC, SP, memory).
	Bit uint
	// Addr is the byte address for memory targets.
	Addr uint32
	// Mask is the XOR mask for TargetALU.
	Mask uint32
}

// String renders the fault for reports.
func (f Fault) String() string {
	switch f.Target {
	case TargetRegister:
		return fmt.Sprintf("%v r%d bit %d at %v", f.Target, f.Reg, f.Bit, f.At)
	case TargetPC, TargetSP:
		return fmt.Sprintf("%v bit %d at %v", f.Target, f.Bit, f.At)
	case TargetALU:
		return fmt.Sprintf("%v mask %#x at %v", f.Target, f.Mask, f.At)
	default:
		return fmt.Sprintf("%v addr %#x bit %d at %v", f.Target, f.Addr, f.Bit, f.At)
	}
}

// Outcome classifies one injection run, in the paper's terms (§3.2.1:
// an NLFT node masks the error, exhibits an omission failure, or
// exhibits a fail-silent failure; non-covered errors escape detection).
type Outcome int

// Injection outcomes.
const (
	// NotActivated: the fault produced no error (overwritten/latent);
	// excluded from the fault rate per §3.2.1.
	NotActivated Outcome = iota + 1
	// Masked: an error was detected and masked locally; all outputs
	// correct and on time.
	Masked
	// Omission: at least one task release delivered no result, but no
	// wrong value was ever delivered.
	Omission
	// FailSilent: the node shut itself down.
	FailSilent
	// ValueFailure: a wrong output escaped every detection mechanism
	// (a non-covered error — the dangerous case).
	ValueFailure
)

// NumOutcomes is the number of outcome classes; valid Outcome values
// are 1..NumOutcomes, so a [NumOutcomes + 1]T array indexes directly by
// Outcome (guarded by TestEnumCardinalities).
const NumOutcomes = int(ValueFailure)

// AllOutcomes lists every outcome class, in declaration (report) order.
func AllOutcomes() []Outcome {
	return []Outcome{NotActivated, Masked, Omission, FailSilent, ValueFailure}
}

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case NotActivated:
		return "not-activated"
	case Masked:
		return "masked"
	case Omission:
		return "omission"
	case FailSilent:
		return "fail-silent"
	case ValueFailure:
		return "value-failure"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}
