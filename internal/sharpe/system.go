// Package sharpe re-implements the subset of the SHARPE tool (Sahner &
// Trivedi, "Reliability Modeling using SHARPE") that the paper's
// dependability analysis uses: continuous-time Markov chains, reliability
// block diagrams and fault trees, composed hierarchically so that a basic
// event of one model can be bound to the unreliability of another.
//
// Two interfaces are provided: a programmatic API (System, AddCTMC,
// AddRBD, AddFaultTree) used by the paper's models in internal/core, and
// a small line-oriented input language (see Parse) in the spirit of
// SHARPE's own, evaluated by cmd/sharpe.
package sharpe

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/faulttree"
	"repro/internal/markov"
	"repro/internal/rbd"
)

// Model is a named dependability model that yields a reliability over time.
type Model interface {
	// Name returns the model's registry name.
	Name() string
	// Kind returns "markov", "rbd" or "ftree".
	Kind() string
	// Reliability returns R(t) with t in hours.
	Reliability(hours float64) (float64, error)
	// MTTF returns the mean time to failure in hours.
	MTTF() (float64, error)
}

// SeriesEvaluator is implemented by models that can evaluate R(t) over a
// whole time grid more cheaply than pointwise calls (e.g. a CTMC that
// solves one matrix exponential for a uniform grid and propagates it).
type SeriesEvaluator interface {
	// ReliabilitySeries returns R(t) for each time (hours, finite,
	// non-negative and non-decreasing).
	ReliabilitySeries(times []float64) ([]float64, error)
}

// memoCap bounds each model's R(t) memo so long-lived systems evaluated
// at many distinct times cannot grow without bound.
const memoCap = 1 << 14

// rmemo memoizes R(t) evaluations keyed by t. Hierarchical models bind
// sub-models through closures evaluated pointwise, so without the memo a
// shared subtree is re-solved for every composite evaluation at the same
// instant. It is safe for concurrent use.
type rmemo struct {
	mu sync.Mutex
	m  map[float64]float64
}

func (c *rmemo) get(t float64) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[t]
	return v, ok
}

func (c *rmemo) put(t, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[float64]float64)
	}
	if len(c.m) < memoCap {
		c.m[t] = v
	}
}

// CTMCModel solves a Markov chain for reliability: R(t) is the probability
// of not being in any designated failure state at time t.
type CTMCModel struct {
	name    string
	chain   *markov.Chain
	initial []float64
	fail    []string
	memo    rmemo
}

var _ Model = (*CTMCModel)(nil)

// NewCTMC wraps a chain with an initial state and failure states.
func NewCTMC(name string, chain *markov.Chain, initialState string, failStates []string) (*CTMCModel, error) {
	p0, err := chain.InitialAt(initialState)
	if err != nil {
		return nil, fmt.Errorf("sharpe: model %q: %w", name, err)
	}
	if len(failStates) == 0 {
		return nil, fmt.Errorf("sharpe: model %q has no failure states", name)
	}
	for _, s := range failStates {
		if _, ok := chain.StateIndex(s); !ok {
			return nil, fmt.Errorf("sharpe: model %q: unknown failure state %q", name, s)
		}
	}
	fail := make([]string, len(failStates))
	copy(fail, failStates)
	return &CTMCModel{name: name, chain: chain, initial: p0, fail: fail}, nil
}

// Name implements Model.
func (m *CTMCModel) Name() string { return m.name }

// Kind implements Model.
func (m *CTMCModel) Kind() string { return "markov" }

// Chain exposes the underlying chain (for state-probability reports).
func (m *CTMCModel) Chain() *markov.Chain { return m.chain }

// Reliability implements Model by transient CTMC solution. Evaluations
// are memoized by t, so hierarchical models that bind this chain into
// several composites do not re-solve it at instants already computed.
func (m *CTMCModel) Reliability(hours float64) (float64, error) {
	if r, ok := m.memo.get(hours); ok {
		return r, nil
	}
	p, err := m.chain.Transient(m.initial, hours)
	if err != nil {
		return 0, fmt.Errorf("sharpe: model %q: %w", m.name, err)
	}
	q, err := m.chain.ProbIn(p, m.fail...)
	if err != nil {
		return 0, fmt.Errorf("sharpe: model %q: %w", m.name, err)
	}
	m.memo.put(hours, 1-q)
	return 1 - q, nil
}

// ReliabilitySeries implements SeriesEvaluator with one shared transient
// solve over the whole grid (see markov.Chain.TransientSeries). Each
// point is stored in the memo, so composites that subsequently evaluate
// this model pointwise at the same instants hit the cache.
func (m *CTMCModel) ReliabilitySeries(times []float64) ([]float64, error) {
	ps, err := m.chain.TransientSeries(m.initial, times)
	if err != nil {
		return nil, fmt.Errorf("sharpe: model %q: %w", m.name, err)
	}
	out := make([]float64, len(times))
	for i, p := range ps {
		q, err := m.chain.ProbIn(p, m.fail...)
		if err != nil {
			return nil, fmt.Errorf("sharpe: model %q: %w", m.name, err)
		}
		out[i] = 1 - q
		m.memo.put(times[i], out[i])
	}
	return out, nil
}

var _ SeriesEvaluator = (*CTMCModel)(nil)

// MTTF implements Model as mean time to absorption in the failure states.
func (m *CTMCModel) MTTF() (float64, error) {
	v, err := m.chain.MTTA(m.initial, m.fail...)
	if err != nil {
		return 0, fmt.Errorf("sharpe: model %q: %w", m.name, err)
	}
	return v, nil
}

// RBDModel wraps a reliability block diagram.
type RBDModel struct {
	name     string
	top      rbd.Block
	mttfHint float64
}

var _ Model = (*RBDModel)(nil)

// NewRBD wraps an RBD top block. mttfHint scales the MTTF quadrature
// (hours); pass 0 for a default.
func NewRBD(name string, top rbd.Block, mttfHint float64) *RBDModel {
	return &RBDModel{name: name, top: top, mttfHint: mttfHint}
}

// Name implements Model.
func (m *RBDModel) Name() string { return m.name }

// Kind implements Model.
func (m *RBDModel) Kind() string { return "rbd" }

// Reliability implements Model.
func (m *RBDModel) Reliability(hours float64) (float64, error) {
	return m.top.Reliability(hours), nil
}

// MTTF implements Model by numeric quadrature of R(t).
func (m *RBDModel) MTTF() (float64, error) {
	return rbd.MTTF(m.top, m.mttfHint), nil
}

// FTModel wraps a fault tree.
type FTModel struct {
	name     string
	tree     *faulttree.Tree
	mttfHint float64
	memo     rmemo
}

var _ Model = (*FTModel)(nil)

// NewFaultTree wraps a fault tree whose basic events may be bound to other
// models via BindEvent on the owning System.
func NewFaultTree(name string, tree *faulttree.Tree, mttfHint float64) *FTModel {
	return &FTModel{name: name, tree: tree, mttfHint: mttfHint}
}

// Name implements Model.
func (m *FTModel) Name() string { return m.name }

// Kind implements Model.
func (m *FTModel) Kind() string { return "ftree" }

// Tree exposes the underlying fault tree.
func (m *FTModel) Tree() *faulttree.Tree { return m.tree }

// Reliability implements Model. Evaluations are memoized by t; the
// tree's basic events typically bind other models, so repeated
// evaluation at one instant would otherwise re-solve the whole subtree.
func (m *FTModel) Reliability(hours float64) (float64, error) {
	if r, ok := m.memo.get(hours); ok {
		return r, nil
	}
	r := m.tree.Reliability(hours)
	if !math.IsNaN(r) {
		m.memo.put(hours, r)
	}
	return r, nil
}

// MTTF implements Model by numeric quadrature of R(t).
func (m *FTModel) MTTF() (float64, error) {
	b := &rbd.Basic{Name: m.name, Fn: func(h float64) float64 {
		return m.tree.Reliability(h)
	}}
	return rbd.MTTF(b, m.mttfHint), nil
}

// System is a registry of named models with hierarchical bindings.
type System struct {
	models map[string]Model
	order  []string
}

// NewSystem returns an empty model registry.
func NewSystem() *System { return &System{models: make(map[string]Model)} }

// Add registers a model under its name. Re-registration is rejected so a
// hierarchy cannot silently rebind a substituted sub-model.
func (s *System) Add(m Model) error {
	if m == nil {
		return errors.New("sharpe: add nil model")
	}
	if _, dup := s.models[m.Name()]; dup {
		return fmt.Errorf("sharpe: duplicate model %q", m.Name())
	}
	s.models[m.Name()] = m
	s.order = append(s.order, m.Name())
	return nil
}

// Model looks up a registered model.
func (s *System) Model(name string) (Model, error) {
	m, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("sharpe: unknown model %q", name)
	}
	return m, nil
}

// Names returns the registered model names in registration order.
func (s *System) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Unreliability returns a fault-tree/RBD-compatible unreliability function
// backed by the named model; errors inside the closure surface as NaN,
// which the first Reliability call on the composite will propagate as an
// out-of-range probability. Composition uses this to bind sub-models.
func (s *System) Unreliability(name string) (faulttree.Unreliability, error) {
	m, err := s.Model(name)
	if err != nil {
		return nil, err
	}
	return func(h float64) float64 {
		r, err := m.Reliability(h)
		if err != nil {
			return math.NaN()
		}
		return 1 - r
	}, nil
}

// ReliabilityFunc returns R(t) of the named model as a plain function.
func (s *System) ReliabilityFunc(name string) (func(float64) float64, error) {
	m, err := s.Model(name)
	if err != nil {
		return nil, err
	}
	return func(h float64) float64 {
		r, err := m.Reliability(h)
		if err != nil {
			return math.NaN()
		}
		return r
	}, nil
}

// SeriesPoint is one sample of a reliability curve.
type SeriesPoint struct {
	Hours float64
	R     float64
}

// ReliabilitySeries evaluates the named model at every time of the grid
// (hours, non-decreasing). Models that implement SeriesEvaluator are
// evaluated with one shared solve; for composites, every registered
// series-capable sub-model is series-evaluated first (warming its memo),
// so the pointwise composite evaluation reduces to cache lookups instead
// of one transient solve per sub-model per point.
func (s *System) ReliabilitySeries(name string, times []float64) ([]float64, error) {
	m, err := s.Model(name)
	if err != nil {
		return nil, err
	}
	if se, ok := m.(SeriesEvaluator); ok {
		return se.ReliabilitySeries(times)
	}
	for _, n := range s.order {
		if n == name {
			continue
		}
		if se, ok := s.models[n].(SeriesEvaluator); ok {
			if _, err := se.ReliabilitySeries(times); err != nil {
				return nil, err
			}
		}
	}
	out := make([]float64, len(times))
	for i, t := range times {
		r, err := m.Reliability(t)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Curve samples the named model's reliability at n+1 evenly spaced points
// over [0, horizon] hours, sharing transient solves across the grid.
func (s *System) Curve(name string, horizon float64, n int) ([]SeriesPoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("sharpe: curve with %d intervals", n)
	}
	times := make([]float64, n+1)
	for i := range times {
		times[i] = horizon * float64(i) / float64(n)
	}
	rs, err := s.ReliabilitySeries(name, times)
	if err != nil {
		return nil, err
	}
	out := make([]SeriesPoint, n+1)
	for i := range times {
		out[i] = SeriesPoint{Hours: times[i], R: rs[i]}
	}
	return out, nil
}
