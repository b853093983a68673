// Package markov provides continuous-time Markov chain (CTMC) modelling
// and solution: transient state probabilities (matrix exponential and
// uniformization), steady-state distributions, mean time to absorption
// (MTTF), and Monte-Carlo trajectory sampling for cross-validation.
//
// It re-implements the CTMC subset of the SHARPE tool that the paper uses
// for its dependability analysis (Figures 6, 7, 9, 10, 11): small chains
// with stiff generators, where fault rates (~10⁻⁵/h) and repair rates
// (~10³/h) coexist and the horizon is up to a year.
//
// All rates are per hour and all times are in hours, matching the paper's
// parameter tables.
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/linalg"
)

// Builder accumulates states and transition rates and validates them into
// an immutable Chain.
type Builder struct {
	names []string
	index map[string]int
	rates map[[2]int]float64
}

// NewBuilder returns an empty chain builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int), rates: make(map[[2]int]float64)}
}

// State declares a state (idempotent) and returns its index.
func (b *Builder) State(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.names = append(b.names, name)
	b.index[name] = i
	return i
}

// Rate sets the transition rate (per hour) from one state to another,
// declaring states as needed. Setting a rate twice overwrites; adding a
// self-loop or a negative rate is rejected at Build time.
func (b *Builder) Rate(from, to string, rate float64) *Builder {
	i, j := b.State(from), b.State(to)
	b.rates[[2]int{i, j}] = rate
	return b
}

// AddRate accumulates onto an existing rate, which is convenient when
// several distinct physical events map onto the same state transition.
func (b *Builder) AddRate(from, to string, rate float64) *Builder {
	i, j := b.State(from), b.State(to)
	b.rates[[2]int{i, j}] += rate
	return b
}

// Build validates the accumulated transitions and returns the chain.
func (b *Builder) Build() (*Chain, error) {
	n := len(b.names)
	if n == 0 {
		return nil, errors.New("markov: chain with no states")
	}
	q := linalg.NewMatrix(n, n)
	for k, r := range b.rates {
		i, j := k[0], k[1]
		if i == j {
			return nil, fmt.Errorf("markov: self-loop on state %q", b.names[i])
		}
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("markov: invalid rate %v from %q to %q", r, b.names[i], b.names[j])
		}
		q.Set(i, j, r)
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += q.At(i, j)
			}
		}
		q.Set(i, i, -sum)
	}
	names := make([]string, n)
	copy(names, b.names)
	index := make(map[string]int, n)
	for k, v := range b.index {
		index[k] = v
	}
	return &Chain{names: names, index: index, q: q}, nil
}

// Chain is an immutable continuous-time Markov chain.
type Chain struct {
	names []string
	index map[string]int
	q     *linalg.Matrix
}

// NumStates reports the number of states.
func (c *Chain) NumStates() int { return len(c.names) }

// States returns the state names in index order.
func (c *Chain) States() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// StateIndex returns the index of a named state.
func (c *Chain) StateIndex(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// Generator returns a copy of the infinitesimal generator Q (rates/hour).
func (c *Chain) Generator() *linalg.Matrix { return c.q.Clone() }

// InitialAt returns a distribution with all mass on the named state.
func (c *Chain) InitialAt(name string) ([]float64, error) {
	i, ok := c.index[name]
	if !ok {
		return nil, fmt.Errorf("markov: unknown state %q", name)
	}
	p := make([]float64, len(c.names))
	p[i] = 1
	return p, nil
}

func (c *Chain) checkDist(p0 []float64) error {
	if len(p0) != len(c.names) {
		return fmt.Errorf("markov: distribution length %d != %d states", len(p0), len(c.names))
	}
	sum := 0.0
	for i, v := range p0 {
		if v < 0 || v > 1+1e-12 {
			return fmt.Errorf("markov: p0[%d] = %v out of [0,1]", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("markov: distribution sums to %v", sum)
	}
	return nil
}

// Transient returns the state distribution after t hours starting from
// p0, computed with the scaling-and-squaring matrix exponential. This is
// the reference solver: robust for arbitrarily stiff generators.
func (c *Chain) Transient(p0 []float64, t float64) ([]float64, error) {
	if err := c.checkDist(p0); err != nil {
		return nil, err
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("markov: invalid horizon %v", t)
	}
	if t == 0 {
		out := make([]float64, len(p0))
		copy(out, p0)
		return out, nil
	}
	e, err := linalg.Expm(c.q.Scale(t))
	if err != nil {
		return nil, fmt.Errorf("markov: transient solve: %w", err)
	}
	p := e.VecMul(p0)
	clampDist(p)
	return p, nil
}

// TransientUniform returns the state distribution after t hours using
// uniformization (Jensen's method) with truncation error below eps.
// It refuses horizons where q*t exceeds maxUniformSteps, where the Poisson
// sum degenerates; use Transient for those. It is the independent
// solver TestTransientMatchesUniformization checks Transient against.
func (c *Chain) TransientUniform(p0 []float64, t, eps float64) ([]float64, error) {
	const maxUniformSteps = 20_000_000
	if err := c.checkDist(p0); err != nil {
		return nil, err
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("markov: invalid horizon %v", t)
	}
	if eps <= 0 {
		eps = 1e-12
	}
	n := len(c.names)
	out := make([]float64, n)
	if t == 0 {
		copy(out, p0)
		return out, nil
	}
	// Uniformization rate: slightly above the largest exit rate.
	qmax := 0.0
	for i := 0; i < n; i++ {
		if v := -c.q.At(i, i); v > qmax {
			qmax = v
		}
	}
	if qmax == 0 { // no transitions at all
		copy(out, p0)
		return out, nil
	}
	rate := qmax * 1.02
	qt := rate * t
	if qt > maxUniformSteps {
		return nil, fmt.Errorf("markov: uniformization with q*t = %.3g too stiff; use Transient", qt)
	}
	// P = I + Q/rate (a stochastic matrix).
	p := linalg.Identity(n).Plus(c.q.Scale(1 / rate))
	// Accumulate sum_k Poisson(qt, k) * p0 * P^k with running Poisson
	// weights in log space to avoid overflow for large qt.
	vec := make([]float64, n)
	copy(vec, p0)
	logW := -qt // log Poisson(qt, 0)
	cum := 0.0
	for k := 0; ; k++ {
		w := math.Exp(logW)
		for i := 0; i < n; i++ {
			out[i] += w * vec[i]
		}
		cum += w
		if 1-cum < eps && float64(k) > qt {
			break
		}
		if k > maxUniformSteps {
			return nil, fmt.Errorf("markov: uniformization failed to converge at k=%d", k)
		}
		vec = p.VecMul(vec)
		logW += math.Log(qt) - math.Log(float64(k+1))
	}
	// Normalize the truncated sum back onto the simplex.
	if cum > 0 {
		for i := range out {
			out[i] /= cum
		}
	}
	clampDist(out)
	return out, nil
}

// maxSharedUniformQt bounds the uniformization rate·t product up to
// which the shared-vector series fallback is cheaper than pointwise
// matrix exponentials.
const maxSharedUniformQt = 50_000

// TransientSeries returns the state distribution at each of the given
// times (hours, finite, non-negative and non-decreasing), starting from
// p0. It is equivalent to calling Transient once per point but shares
// work across the series:
//
//   - On a uniform grid t_i = t_0 + i·Δt it computes E = e^{Q·Δt} once
//     and propagates p ← p·E per step — one Expm plus one vector-matrix
//     product per point instead of one Expm per point.
//   - On a non-uniform grid it uses uniformization with the power
//     vectors p0·Pᵏ computed once and shared across all points (only the
//     Poisson weights differ per point), when the chain's stiffness
//     allows; otherwise it falls back to pointwise Transient.
func (c *Chain) TransientSeries(p0 []float64, times []float64) ([][]float64, error) {
	if err := c.checkDist(p0); err != nil {
		return nil, err
	}
	for i, t := range times {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("markov: invalid horizon %v at index %d", t, i)
		}
		if i > 0 && t < times[i-1] {
			return nil, fmt.Errorf("markov: times not non-decreasing at index %d (%v < %v)", i, t, times[i-1])
		}
	}
	if len(times) == 0 {
		return nil, nil
	}
	out := make([][]float64, len(times))
	if dt, ok := uniformStep(times); ok {
		p, err := c.Transient(p0, times[0])
		if err != nil {
			return nil, err
		}
		out[0] = p
		if len(times) == 1 {
			return out, nil
		}
		if dt == 0 {
			for i := 1; i < len(times); i++ {
				cp := make([]float64, len(p))
				copy(cp, p)
				out[i] = cp
			}
			return out, nil
		}
		e, err := linalg.Expm(c.q.Scale(dt))
		if err != nil {
			return nil, fmt.Errorf("markov: transient series step: %w", err)
		}
		// Re-anchor with a fresh direct solve every few steps: repeated
		// p·E multiplication accumulates the single-step error of E
		// linearly, and on stiff generators (many squarings inside Expm)
		// that drift would exceed 1e-10 after a few hundred steps.
		const anchorEvery = 32
		for i := 1; i < len(times); i++ {
			if i%anchorEvery == 0 {
				p, err = c.Transient(p0, times[i])
				if err != nil {
					return nil, err
				}
				out[i] = p
				continue
			}
			p = e.VecMul(p)
			clampDist(p)
			out[i] = p
		}
		return out, nil
	}
	if ps, ok, err := c.transientSeriesUniform(p0, times, 1e-12); err != nil {
		return nil, err
	} else if ok {
		return ps, nil
	}
	for i, t := range times {
		p, err := c.Transient(p0, t)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// uniformStep reports whether the grid is (numerically) uniform and, if
// so, its step. A single point counts as uniform.
func uniformStep(times []float64) (float64, bool) {
	if len(times) < 2 {
		return 0, true
	}
	dt := times[1] - times[0]
	tol := 1e-9 * math.Max(math.Abs(dt), math.Abs(times[len(times)-1])*1e-6)
	if tol == 0 {
		tol = 1e-18
	}
	for i := 2; i < len(times); i++ {
		if math.Abs((times[i]-times[i-1])-dt) > tol {
			return 0, false
		}
	}
	return dt, true
}

// transientSeriesUniform evaluates the whole series with one shared
// uniformization sweep: the vectors p0·Pᵏ are computed once and each
// point accumulates them under its own running Poisson weights. It
// reports ok=false when the chain is too stiff for the sweep to beat
// pointwise matrix exponentials.
func (c *Chain) transientSeriesUniform(p0, times []float64, eps float64) ([][]float64, bool, error) {
	n := len(c.names)
	qmax := 0.0
	for i := 0; i < n; i++ {
		if v := -c.q.At(i, i); v > qmax {
			qmax = v
		}
	}
	if qmax == 0 {
		out := make([][]float64, len(times))
		for i := range out {
			cp := make([]float64, n)
			copy(cp, p0)
			out[i] = cp
		}
		return out, true, nil
	}
	rate := qmax * 1.02
	qtMax := rate * times[len(times)-1]
	if qtMax > maxSharedUniformQt {
		return nil, false, nil
	}
	p := linalg.Identity(n).Plus(c.q.Scale(1 / rate))
	out := make([][]float64, len(times))
	logW := make([]float64, len(times))
	cum := make([]float64, len(times))
	qts := make([]float64, len(times))
	for i, t := range times {
		out[i] = make([]float64, n)
		qts[i] = rate * t
		logW[i] = -qts[i] // log Poisson(qt, 0)
	}
	vec := make([]float64, n)
	copy(vec, p0)
	for k := 0; ; k++ {
		done := true
		for i := range times {
			w := math.Exp(logW[i])
			if w > 0 {
				oi := out[i]
				for j, v := range vec {
					oi[j] += w * v
				}
				cum[i] += w
			}
			if !(1-cum[i] < eps && float64(k) > qts[i]) {
				done = false
			}
		}
		if done {
			break
		}
		if float64(k) > qtMax+40*math.Sqrt(qtMax)+100 {
			return nil, false, fmt.Errorf("markov: shared uniformization failed to converge at k=%d", k)
		}
		vec = p.VecMul(vec)
		for i := range times {
			logW[i] += math.Log(qts[i]) - math.Log(float64(k+1))
		}
	}
	for i := range out {
		if cum[i] > 0 {
			for j := range out[i] {
				out[i][j] /= cum[i]
			}
		}
		clampDist(out[i])
	}
	return out, true, nil
}

// Absorbing reports the names of states with no outgoing transitions.
func (c *Chain) Absorbing() []string {
	var out []string
	for i, name := range c.names {
		if c.q.At(i, i) == 0 {
			out = append(out, name)
		}
	}
	return out
}

// MTTA returns the mean time to absorption in hours, starting from p0,
// treating the given states as absorbing targets. Transitions out of the
// target states are ignored (they are made absorbing for the analysis).
// It returns +Inf if some starting mass can never reach a target.
func (c *Chain) MTTA(p0 []float64, targets ...string) (float64, error) {
	if err := c.checkDist(p0); err != nil {
		return 0, err
	}
	if len(targets) == 0 {
		targets = c.Absorbing()
		if len(targets) == 0 {
			return 0, errors.New("markov: MTTA with no absorbing states")
		}
	}
	absorb := make(map[int]bool, len(targets))
	for _, name := range targets {
		i, ok := c.index[name]
		if !ok {
			return 0, fmt.Errorf("markov: unknown target state %q", name)
		}
		absorb[i] = true
	}
	// Transient sub-generator Q_TT.
	var tr []int
	for i := range c.names {
		if !absorb[i] {
			tr = append(tr, i)
		}
	}
	if len(tr) == 0 {
		return 0, nil
	}
	m := len(tr)
	qtt := linalg.NewMatrix(m, m)
	for a, i := range tr {
		for b, j := range tr {
			qtt.Set(a, b, c.q.At(i, j))
		}
	}
	// Expected total time in each transient state: τ = p0_T (−Q_TT)⁻¹,
	// i.e. (−Q_TT)ᵀ τᵀ = p0_Tᵀ.
	rhs := make([]float64, m)
	for a, i := range tr {
		rhs[a] = p0[i]
	}
	neg := qtt.Transpose().Scale(-1)
	tau, err := linalg.Solve(neg, rhs)
	if err != nil {
		// A singular −Q_TT means part of the transient class cannot reach
		// any absorbing state: mean time to absorption is infinite.
		if errors.Is(err, linalg.ErrSingular) {
			return math.Inf(1), nil
		}
		return 0, fmt.Errorf("markov: MTTA solve: %w", err)
	}
	sum := 0.0
	for _, v := range tau {
		if v < 0 && v > -1e-9 {
			v = 0
		}
		if v < 0 {
			return math.Inf(1), nil
		}
		sum += v
	}
	return sum, nil
}

// ProbIn sums the probability mass of the named states in distribution p.
func (c *Chain) ProbIn(p []float64, states ...string) (float64, error) {
	sum := 0.0
	for _, name := range states {
		i, ok := c.index[name]
		if !ok {
			return 0, fmt.Errorf("markov: unknown state %q", name)
		}
		sum += p[i]
	}
	return sum, nil
}

// Sample simulates one trajectory from state start until maxT hours have
// elapsed or an absorbing state is reached, and returns the final state
// name and the time at which the trajectory settled (maxT if censored).
// It provides a Monte-Carlo cross-check of the analytic solvers
// (TestSampleMatchesAnalytic).
func (c *Chain) Sample(rng *des.Rand, start string, maxT float64) (string, float64, error) {
	i, ok := c.index[start]
	if !ok {
		return "", 0, fmt.Errorf("markov: unknown state %q", start)
	}
	t := 0.0
	n := len(c.names)
	for {
		exit := -c.q.At(i, i)
		if exit == 0 {
			return c.names[i], t, nil // absorbed
		}
		dwell := rng.Exp(exit)
		if t+dwell >= maxT {
			return c.names[i], maxT, nil
		}
		t += dwell
		// Choose the successor proportionally to its rate.
		u := rng.Float64() * exit
		acc := 0.0
		next := -1
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			acc += c.q.At(i, j)
			if u < acc {
				next = j
				break
			}
		}
		if next < 0 { // numerical edge: pick the last positive-rate successor
			for j := n - 1; j >= 0; j-- {
				if j != i && c.q.At(i, j) > 0 {
					next = j
					break
				}
			}
		}
		i = next
	}
}

// clampDist snaps tiny numerical excursions outside [0,1] back into range.
func clampDist(p []float64) {
	for i, v := range p {
		if v < 0 {
			p[i] = 0
		} else if v > 1 {
			p[i] = 1
		}
	}
}
