package core

import (
	"fmt"
	"sort"

	"repro/internal/markov"
)

// This file models the redundancy alternatives the paper's introduction
// frames NLFT against: systems without fail-silence need majority voting
// over 2f+1 nodes to mask f failures, while fail-silent nodes need only
// f+1. The TMR central-unit model lets the repository quantify the
// trade-off (nodes spent vs reliability gained) that motivates the
// paper's duplex-plus-NLFT design point.

// CentralUnitTMR builds a triple-modular-redundant central unit: three
// nodes with majority voting, so the subsystem works while at least two
// nodes agree. Nodes fail like FS nodes (any activated, detected fault
// downs the node; transients repair at μ_R), but — the TMR property —
// an UNDETECTED erroneous node is outvoted rather than system-fatal, as
// long as the other two still agree.
//
// States: "3" (all up), "2p"/"2t" (one down permanently / transiently),
// "F" (fewer than two correct nodes, or two simultaneous liars).
func CentralUnitTMR(p Params) (*markov.Chain, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	total := p.LambdaP + p.LambdaT
	b := markov.NewBuilder()
	// From all-up: any node's detected permanent/transient fault drops
	// one voter. An undetected fault makes one node a liar — the voter
	// masks it, but the node is effectively lost until its next
	// transient resolution; pessimistically treat an undetected fault as
	// a permanently lost voter (it keeps voting wrongly).
	b.Rate("3", "2p", 3*p.LambdaP*p.CD)
	b.Rate("3", "2t", 3*p.LambdaT*p.CD)
	b.AddRate("3", "2p", 3*total*(1-p.CD)) // liar: outvoted, but one voter lost
	b.Rate("2t", "3", p.MuR)
	// With two voters left, majority needs both: any activated fault in
	// either (detected or not — with two nodes disagreement cannot be
	// resolved) fails the subsystem.
	b.Rate("2p", "F", 2*total)
	b.Rate("2t", "F", 2*total)
	return b.Build()
}

// RedundancyOption is one central-unit design point for the comparison.
type RedundancyOption struct {
	Name  string
	Nodes int
	// ROneYear is the subsystem reliability at one year.
	ROneYear float64
	// MTTFYears is the subsystem mean time to failure.
	MTTFYears float64
}

// CompareRedundancy evaluates the central-unit alternatives from the
// paper's introduction: a single simplex node, duplex FS, duplex NLFT,
// and TMR with voting — reliability against node count.
func CompareRedundancy(p Params) ([]RedundancyOption, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	total := p.LambdaP + p.LambdaT
	out := make([]RedundancyOption, 0, 4)

	// Simplex FS node: any activated fault at least interrupts service;
	// treat the first fault as subsystem failure (no redundancy).
	sb := markov.NewBuilder()
	sb.Rate(StateOK, StateFailed, total)
	simplex, err := sb.Build()
	if err != nil {
		return nil, err
	}

	configs := []struct {
		name  string
		nodes int
		build func() (*markov.Chain, error)
	}{
		{"simplex", 1, func() (*markov.Chain, error) { return simplex, nil }},
		{"duplex-FS", 2, func() (*markov.Chain, error) { return CentralUnitFS(p) }},
		{"duplex-NLFT", 2, func() (*markov.Chain, error) { return CentralUnitNLFT(p) }},
		{"tmr-voted", 3, func() (*markov.Chain, error) { return CentralUnitTMR(p) }},
	}
	for _, c := range configs {
		chain, err := c.build()
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", c.name, err)
		}
		initial := chain.States()[0]
		p0, err := chain.InitialAt(initial)
		if err != nil {
			return nil, err
		}
		dist, err := chain.Transient(p0, HoursPerYear)
		if err != nil {
			return nil, err
		}
		q, err := chain.ProbIn(dist, StateFailed)
		if err != nil {
			return nil, err
		}
		mttf, err := chain.MTTA(p0, StateFailed)
		if err != nil {
			return nil, err
		}
		out = append(out, RedundancyOption{
			Name:      c.name,
			Nodes:     c.nodes,
			ROneYear:  1 - q,
			MTTFYears: mttf / HoursPerYear,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nodes < out[j].Nodes })
	return out, nil
}
