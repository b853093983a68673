package exhaust

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/fault"
)

// Space is the canonical enumeration of every single-fault placement:
// the cartesian product of injection quanta in [Start, End) and the
// full per-target locus×bit support of the campaign's fault model
// (fault.Placements, the sampler's distribution — every placement it
// could draw at a quantum instant appears exactly once). Placement i is
// decoded as quantum i/PerQuantum, then placement i%PerQuantum of that
// support: target blocks in Targets order, each word-major. That index
// IS the canonical order: results are reported in it regardless of
// worker count or exploration schedule.
type Space struct {
	// Quantum is the spacing between enumerated injection instants.
	Quantum des.Time
	// Start and End bound the injection instants as [Start, End).
	Start, End des.Time
	// Targets lists the enumerated classes in canonical order.
	Targets []fault.Target
	// Quanta and PerQuantum factor Len: Quanta enumerated instants, each
	// carrying PerQuantum distinct (target, locus, bit) placements.
	Quanta     int
	PerQuantum int

	decode func(at des.Time, r int) fault.Fault
}

// NewSpace builds the placement space for a workload. The window
// defaults to the workload's InjectionWindow clipped to one hyperperiod
// (when the workload implements fault.Hyperperioder); cfg.Start/End
// override it. Defaults are applied to cfg in place (idempotent), so
// external callers can pass a zero-valued config directly.
func NewSpace(w fault.Workload, cfg *Config) (*Space, error) {
	cfg.applyDefaults()
	start, end := w.InjectionWindow()
	if hp, ok := w.(fault.Hyperperioder); ok {
		if clip := start + hp.Hyperperiod(); clip < end {
			end = clip
		}
	}
	if cfg.End > 0 {
		start, end = cfg.Start, cfg.End
	}
	if end <= start {
		return nil, fmt.Errorf("exhaust: empty injection window [%v, %v)", start, end)
	}
	s := &Space{Quantum: cfg.Quantum, Start: start, End: end,
		Targets: cfg.Targets}
	// Half-open window: ceil((end-start)/quantum) quanta cover [start,
	// end) with the last quantum possibly partial; instant `end` itself
	// is never enumerated, matching drawFault's Intn(end-start).
	s.Quanta = int((end - start + cfg.Quantum - 1) / cfg.Quantum)
	var err error
	if s.PerQuantum, s.decode, err = fault.Placements(w, cfg.Targets); err != nil {
		return nil, fmt.Errorf("exhaust: %w", err)
	}
	if s.PerQuantum == 0 {
		return nil, fmt.Errorf("exhaust: no targets")
	}
	return s, nil
}

// Len is the total placement count.
func (s *Space) Len() int { return s.Quanta * s.PerQuantum }

// Fault decodes canonical placement index i.
func (s *Space) Fault(i int) fault.Fault {
	q, r := i/s.PerQuantum, i%s.PerQuantum
	return s.decode(s.Start+des.Time(q)*s.Quantum, r)
}

// Faults materializes the whole space in canonical order.
func (s *Space) Faults() []fault.Fault {
	out := make([]fault.Fault, s.Len())
	for i := range out {
		out[i] = s.Fault(i)
	}
	return out
}
