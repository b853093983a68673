// Package faulttree implements static fault trees: basic events with
// time-dependent failure probabilities combined through AND, OR and
// K-of-N gates, with exact top-event evaluation (assuming independent
// basic events).
//
// The paper's Figure 5 is a fault tree whose top event is "BBW system
// fails", an OR of the central-unit subsystem and the wheel-node
// subsystem; the subsystem failure probabilities come from Markov models.
// This package supplies the composition layer: basic events can be bound
// to arbitrary unreliability functions, including CTMC solutions.
package faulttree

import (
	"fmt"
	"math"
	"sort"
)

// Unreliability is a failure probability as a function of time:
// Q(t) = 1 − R(t). Time is in hours.
type Unreliability func(hours float64) float64

// Node is a node in the fault tree: a basic event or a gate (New
// rejects any other implementation).
type Node interface {
	// Q evaluates the node's failure probability at time t, assuming
	// independence of all basic events beneath it.
	Q(hours float64) float64
}

// Event is a basic event (a leaf).
type Event struct {
	Name string
	Fn   Unreliability
}

var _ Node = (*Event)(nil)

// NewEvent returns a basic event with the given unreliability function.
func NewEvent(name string, fn Unreliability) *Event {
	if fn == nil {
		panic("faulttree: event with nil unreliability")
	}
	return &Event{Name: name, Fn: fn}
}

// ConstEvent returns a basic event with a time-independent probability.
func ConstEvent(name string, q float64) *Event {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("faulttree: probability %v out of [0,1]", q))
	}
	return NewEvent(name, func(float64) float64 { return q })
}

// ExponentialEvent returns a basic event failing at a constant rate per
// hour: Q(t) = 1 − e^{−rate·t}.
func ExponentialEvent(name string, ratePerHour float64) *Event {
	if ratePerHour < 0 {
		panic(fmt.Sprintf("faulttree: negative rate %v", ratePerHour))
	}
	return NewEvent(name, func(h float64) float64 {
		return 1 - math.Exp(-ratePerHour*h)
	})
}

// Q evaluates the event's probability, clamped to [0,1].
func (e *Event) Q(hours float64) float64 { return clamp(e.Fn(hours)) }

// gateKind distinguishes the gate types.
type gateKind int

const (
	andGate gateKind = iota + 1
	orGate
	kOfNGate
)

// Gate combines child nodes.
type Gate struct {
	kind     gateKind
	k        int // for kOfNGate
	children []Node
}

var _ Node = (*Gate)(nil)

// AND returns a gate that fails only when every child fails.
func AND(children ...Node) *Gate {
	mustChildren("AND", children)
	return &Gate{kind: andGate, children: children}
}

// OR returns a gate that fails when any child fails.
func OR(children ...Node) *Gate {
	mustChildren("OR", children)
	return &Gate{kind: orGate, children: children}
}

// KOfN returns a gate that fails when at least k children fail.
func KOfN(k int, children ...Node) *Gate {
	mustChildren("KOfN", children)
	if k < 1 || k > len(children) {
		panic(fmt.Sprintf("faulttree: k=%d out of range for %d children", k, len(children)))
	}
	return &Gate{kind: kOfNGate, k: k, children: children}
}

func mustChildren(kind string, children []Node) {
	if len(children) == 0 {
		panic("faulttree: " + kind + " gate with no children")
	}
	for _, c := range children {
		if c == nil {
			panic("faulttree: " + kind + " gate with nil child")
		}
	}
}

// Q evaluates the gate assuming independent children. Shared basic events
// under different branches make this an approximation; Tree.Eval detects
// sharing and switches to exact evaluation by event decomposition.
func (g *Gate) Q(hours float64) float64 {
	switch g.kind {
	case andGate:
		q := 1.0
		for _, c := range g.children {
			q *= c.Q(hours)
		}
		return q
	case orGate:
		s := 1.0
		for _, c := range g.children {
			s *= 1 - c.Q(hours)
		}
		return clamp(1 - s)
	default: // kOfNGate: dynamic programming over count of failed children
		n := len(g.children)
		dp := make([]float64, n+1)
		dp[0] = 1
		for _, c := range g.children {
			q := c.Q(hours)
			for i := n; i >= 1; i-- {
				dp[i] = dp[i]*(1-q) + dp[i-1]*q
			}
			dp[0] *= 1 - q
		}
		sum := 0.0
		for i := g.k; i <= n; i++ {
			sum += dp[i]
		}
		return clamp(sum)
	}
}

// Tree is a fault tree with a designated top node.
type Tree struct {
	top    Node
	events map[string]*Event
	shared bool
}

// New validates the structure under top and returns the tree. It rejects
// two distinct basic events carrying the same name, since evaluation and
// cut sets are keyed by name.
func New(top Node) (*Tree, error) {
	if top == nil {
		return nil, fmt.Errorf("faulttree: nil top node")
	}
	t := &Tree{top: top, events: make(map[string]*Event)}
	occurrences := make(map[string]int)
	var walk func(n Node) error
	walk = func(n Node) error {
		switch v := n.(type) {
		case *Event:
			if prev, ok := t.events[v.Name]; ok && prev != v {
				return fmt.Errorf("faulttree: two distinct events named %q", v.Name)
			}
			t.events[v.Name] = v
			occurrences[v.Name]++
		case *Gate:
			for _, c := range v.children {
				if err := walk(c); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("faulttree: unknown node type %T", n)
		}
		return nil
	}
	if err := walk(top); err != nil {
		return nil, err
	}
	for _, n := range occurrences {
		if n > 1 {
			t.shared = true
			break
		}
	}
	return t, nil
}

// Events returns the names of the basic events in sorted order.
func (t *Tree) Events() []string {
	out := make([]string, 0, len(t.events))
	for name := range t.events {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Eval returns the top-event probability at time t. When no basic event
// appears under more than one branch, the gates are evaluated directly
// (independent sub-trees). With shared events, the tree is evaluated
// exactly by Shannon decomposition over the shared events.
func (t *Tree) Eval(hours float64) float64 {
	if !t.shared {
		return t.top.Q(hours)
	}
	// Shannon decomposition: condition on each event appearing in the
	// tree. With the small trees used here (≤ ~20 events) this is exact
	// and fast enough.
	names := t.Events()
	probs := make(map[string]float64, len(names))
	for _, n := range names {
		probs[n] = t.events[n].Q(hours)
	}
	var rec func(i int, assign map[string]bool, weight float64) float64
	rec = func(i int, assign map[string]bool, weight float64) float64 {
		if weight == 0 {
			return 0
		}
		if i == len(names) {
			if evalAssigned(t.top, assign) {
				return weight
			}
			return 0
		}
		name := names[i]
		assign[name] = true
		failed := rec(i+1, assign, weight*probs[name])
		assign[name] = false
		ok := rec(i+1, assign, weight*(1-probs[name]))
		delete(assign, name)
		return failed + ok
	}
	return clamp(rec(0, make(map[string]bool, len(names)), 1))
}

// evalAssigned evaluates the structure function for a full assignment of
// basic-event outcomes (true = failed).
func evalAssigned(n Node, assign map[string]bool) bool {
	switch v := n.(type) {
	case *Event:
		return assign[v.Name]
	case *Gate:
		count := 0
		for _, c := range v.children {
			if evalAssigned(c, assign) {
				count++
			}
		}
		switch v.kind {
		case andGate:
			return count == len(v.children)
		case orGate:
			return count > 0
		default:
			return count >= v.k
		}
	default:
		panic(fmt.Sprintf("faulttree: unknown node type %T", n))
	}
}

// Reliability returns 1 − Eval(t).
func (t *Tree) Reliability(hours float64) float64 { return clamp(1 - t.Eval(hours)) }

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
