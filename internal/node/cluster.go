package node

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/stats"
)

// ClusterMode selects the BBW functionality requirement (§3.2).
type ClusterMode int

// Functionality modes.
const (
	// FullMode requires all four wheel nodes and one central-unit node.
	FullMode ClusterMode = iota + 1
	// DegradedMode requires three of four wheel nodes and one central-
	// unit node, with failed wheel nodes allowed to reintegrate.
	DegradedMode
)

// String names the mode.
func (m ClusterMode) String() string {
	switch m {
	case FullMode:
		return "full"
	case DegradedMode:
		return "degraded"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// BBWCluster assembles the paper's architecture from behavioural nodes:
// a duplex central unit and four simplex wheel nodes, and latches the
// first violation of the functionality requirement as a system failure.
type BBWCluster struct {
	sim    *des.Simulator
	mode   ClusterMode
	cu     [2]*BehavioralNode
	wheels [4]*BehavioralNode
	// failedAt is the latched system-failure instant (0 = none; the
	// validity flag distinguishes an instant-zero failure).
	failedAt   des.Time
	failed     bool
	failReason string
}

// NewBBWCluster builds the cluster with independent RNG streams split
// from rng.
func NewBBWCluster(sim *des.Simulator, rng *des.Rand, behavior Behavior, mode ClusterMode, r Rates) (*BBWCluster, error) {
	if mode != FullMode && mode != DegradedMode {
		return nil, fmt.Errorf("node: unknown mode %v", mode)
	}
	c := &BBWCluster{sim: sim, mode: mode}
	watch := func(n *BehavioralNode, from, to State) { c.onChange() }
	for i := range c.cu {
		n, err := NewBehavioral(sim, rng.Split(), fmt.Sprintf("CU%d", i+1), behavior, r)
		if err != nil {
			return nil, err
		}
		n.OnChange = watch
		c.cu[i] = n
	}
	for i := range c.wheels {
		n, err := NewBehavioral(sim, rng.Split(), fmt.Sprintf("WN%d", i+1), behavior, r)
		if err != nil {
			return nil, err
		}
		n.OnChange = watch
		c.wheels[i] = n
	}
	return c, nil
}

// Failed reports the latched system failure.
func (c *BBWCluster) Failed() (bool, des.Time, string) {
	return c.failed, c.failedAt, c.failReason
}

// onChange re-evaluates the failure predicate after any node transition.
func (c *BBWCluster) onChange() {
	if c.failed {
		return
	}
	if reason := c.violation(); reason != "" {
		c.failed = true
		c.failedAt = c.sim.Now()
		c.failReason = reason
	}
}

// violation checks the paper's failure conditions (§3.2.1, §3.2.3):
// any non-covered error is a system failure; the central unit fails when
// both nodes are down; the wheel subsystem fails when the mode's minimum
// is not met.
func (c *BBWCluster) violation() string {
	downCU := 0
	for _, n := range c.cu {
		switch n.State() {
		case Uncovered:
			return fmt.Sprintf("non-covered error in %s", n.Name)
		case Working:
		default:
			downCU++
		}
	}
	if downCU == 2 {
		return "both central-unit nodes down"
	}
	downWheels := 0
	for _, n := range c.wheels {
		switch n.State() {
		case Uncovered:
			return fmt.Sprintf("non-covered error in %s", n.Name)
		case Working:
		default:
			downWheels++
		}
	}
	switch c.mode {
	case FullMode:
		if downWheels > 0 {
			return "wheel node down (full functionality lost)"
		}
	case DegradedMode:
		if downWheels >= 2 {
			return "two wheel nodes down"
		}
	}
	return ""
}

// MonteCarloResult summarizes a reliability estimation run.
type MonteCarloResult struct {
	Trials  int
	Horizon float64 // hours
	// R estimates the reliability at the horizon.
	R stats.Proportion
	// MaskedTotal sums locally masked transients across trials (NLFT).
	MaskedTotal uint64
}

// MonteCarloBBW estimates the BBW system reliability at horizonHours by
// simulating independent cluster lifetimes. It cross-validates the
// analytic Figure 12 models.
func MonteCarloBBW(trials int, horizonHours float64, behavior Behavior, mode ClusterMode, r Rates, seed uint64) (*MonteCarloResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("node: %d trials", trials)
	}
	if horizonHours <= 0 {
		return nil, fmt.Errorf("node: horizon %v", horizonHours)
	}
	root := des.NewRand(seed)
	horizon := des.Time(horizonHours * float64(des.Hour))
	res := &MonteCarloResult{Trials: trials, Horizon: horizonHours}
	survivors := 0
	for i := 0; i < trials; i++ {
		sim := des.New()
		cluster, err := NewBBWCluster(sim, root.Split(), behavior, mode, r)
		if err != nil {
			return nil, err
		}
		if err := sim.RunUntil(horizon); err != nil {
			return nil, err
		}
		if failed, _, _ := cluster.Failed(); !failed {
			survivors++
		}
		for _, n := range cluster.cu {
			res.MaskedTotal += n.Masked()
		}
		for _, n := range cluster.wheels {
			res.MaskedTotal += n.Masked()
		}
	}
	res.R = stats.NewProportion(survivors, trials)
	return res, nil
}
