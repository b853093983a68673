// Package node models the computer nodes of the distributed architecture
// (§2.1): a host processor running the NLFT kernel plus a network
// interface, in simplex or duplex configurations.
//
// Two levels of abstraction are provided:
//
//   - BehavioralNode: a failure-semantics state machine driven by
//     exponential fault arrivals with the paper's parameters (λ_P, λ_T,
//     C_D, P_T, P_OM, P_FS, μ_R, μ_OM). Clusters of behavioural nodes
//     Monte-Carlo-validate the analytic Markov models of Figures 6–11.
//
//   - HostedNode: a full simulated kernel coupled to a time-triggered
//     network endpoint, used by the brake-by-wire application.
package node

import (
	"fmt"

	"repro/internal/des"
)

// Rates is the dependability parameter set for behavioural nodes,
// mirroring §3.2.2 (rates per hour, probabilities conditional).
type Rates struct {
	LambdaP, LambdaT float64
	CD               float64
	PT, POM, PFS     float64
	MuR, MuOM        float64
}

// Validate checks ranges and that P_T+P_OM+P_FS = 1.
func (r Rates) Validate() error {
	if r.LambdaP < 0 || r.LambdaT < 0 || r.MuR <= 0 || r.MuOM <= 0 {
		return fmt.Errorf("node: invalid rates %+v", r)
	}
	if r.CD < 0 || r.CD > 1 {
		return fmt.Errorf("node: coverage %v", r.CD)
	}
	sum := r.PT + r.POM + r.PFS
	if sum < 0.999999999 || sum > 1.000000001 {
		return fmt.Errorf("node: P_T+P_OM+P_FS = %v", sum)
	}
	return nil
}

// Behavior selects the node's failure semantics (§3.2.1).
type Behavior int

// Node behaviours compared in the paper.
const (
	// FSBehavior: every detected error silences the node until restart.
	FSBehavior Behavior = iota + 1
	// NLFTBehavior: detected transients are masked with P_T, cause
	// omissions with P_OM or fail-silent failures with P_FS.
	NLFTBehavior
)

// String names the behaviour.
func (b Behavior) String() string {
	switch b {
	case FSBehavior:
		return "FS"
	case NLFTBehavior:
		return "NLFT"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// State is the externally visible node state.
type State int

// Behavioural node states (the Markov models' state semantics).
const (
	// Working: providing service (includes masked-transient instants).
	Working State = iota + 1
	// RestartDown: fail-silent failure, restarting (repair rate μ_R).
	RestartDown
	// OmissionDown: omission failure, reintegrating (repair rate μ_OM).
	OmissionDown
	// PermanentDown: permanently down (no repair in the models).
	PermanentDown
	// Uncovered: a non-covered error escaped detection — the paper
	// pessimistically treats this as a system failure.
	Uncovered
)

// String names the state.
func (s State) String() string {
	switch s {
	case Working:
		return "working"
	case RestartDown:
		return "restart-down"
	case OmissionDown:
		return "omission-down"
	case PermanentDown:
		return "permanent-down"
	case Uncovered:
		return "uncovered"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BehavioralNode is the state machine.
type BehavioralNode struct {
	Name     string
	behavior Behavior
	rates    Rates
	sim      *des.Simulator
	rng      *des.Rand
	state    State
	// masked counts transient faults masked by TEM (NLFT only).
	masked uint64
	// OnChange observes transitions.
	OnChange func(n *BehavioralNode, from, to State)
	// pending repair event, canceled on permanent transitions (the zero
	// handle means no repair is in flight).
	repair des.Event
	// Bound fault/repair callbacks, created once so the recurring
	// exponential arrivals re-arm without allocating per event.
	permanentFn, transientFn, repairedFn func()
}

// NewBehavioral builds a node in the Working state and schedules its
// fault processes. rng must be a dedicated stream for this node.
func NewBehavioral(sim *des.Simulator, rng *des.Rand, name string, b Behavior, r Rates) (*BehavioralNode, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if b != FSBehavior && b != NLFTBehavior {
		return nil, fmt.Errorf("node: unknown behavior %v", b)
	}
	n := &BehavioralNode{Name: name, behavior: b, rates: r, sim: sim, rng: rng, state: Working}
	n.permanentFn = n.permanentFault
	n.transientFn = n.transientFault
	n.repairedFn = n.repaired
	n.schedulePermanent()
	n.scheduleTransient()
	return n, nil
}

// State reports the current state.
func (n *BehavioralNode) State() State { return n.state }

// Masked reports the count of locally masked transients.
func (n *BehavioralNode) Masked() uint64 { return n.masked }

func (n *BehavioralNode) setState(s State) {
	if n.state == s {
		return
	}
	from := n.state
	n.state = s
	if n.OnChange != nil {
		n.OnChange(n, from, s)
	}
}

func (n *BehavioralNode) schedulePermanent() {
	if n.rates.LambdaP == 0 {
		return
	}
	d := n.rng.ExpTime(n.rates.LambdaP)
	if d == des.MaxTime {
		return
	}
	n.sim.Schedule(n.sim.Now()+d, des.PrioInject, n.permanentFn)
}

func (n *BehavioralNode) scheduleTransient() {
	if n.rates.LambdaT == 0 {
		return
	}
	d := n.rng.ExpTime(n.rates.LambdaT)
	if d == des.MaxTime {
		return
	}
	n.sim.Schedule(n.sim.Now()+d, des.PrioInject, n.transientFn)
}

// permanentFault handles an activated permanent fault.
func (n *BehavioralNode) permanentFault() {
	if n.state == PermanentDown || n.state == Uncovered {
		return
	}
	n.sim.Cancel(n.repair)
	n.repair = des.Event{}
	if !n.rng.Bool(n.rates.CD) {
		n.setState(Uncovered)
		return
	}
	n.setState(PermanentDown)
}

// transientFault handles an activated transient fault; further
// transients keep arriving regardless of state (they only matter when
// the node is up, but a transient hitting a restarting node is absorbed
// by the restart already underway).
func (n *BehavioralNode) transientFault() {
	defer n.scheduleTransient()
	if n.state != Working {
		return
	}
	if !n.rng.Bool(n.rates.CD) {
		n.setState(Uncovered)
		return
	}
	switch n.behavior {
	case FSBehavior:
		n.failSilent()
	case NLFTBehavior:
		u := n.rng.Float64()
		switch {
		case u < n.rates.PT:
			n.masked++ // masked locally; externally invisible
		case u < n.rates.PT+n.rates.POM:
			n.omission()
		default:
			n.failSilent()
		}
	}
}

func (n *BehavioralNode) failSilent() {
	n.setState(RestartDown)
	d := n.rng.ExpTime(n.rates.MuR)
	n.repair = n.sim.Schedule(n.sim.Now()+d, des.PrioKernel, n.repairedFn)
}

func (n *BehavioralNode) omission() {
	n.setState(OmissionDown)
	d := n.rng.ExpTime(n.rates.MuOM)
	n.repair = n.sim.Schedule(n.sim.Now()+d, des.PrioKernel, n.repairedFn)
}

func (n *BehavioralNode) repaired() {
	n.repair = des.Event{}
	if n.state == RestartDown || n.state == OmissionDown {
		n.setState(Working)
	}
}
