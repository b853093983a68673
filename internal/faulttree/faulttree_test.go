package faulttree

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func mustTree(t *testing.T, top Node) *Tree {
	t.Helper()
	tree, err := New(top)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestEventValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil unreliability did not panic")
		}
	}()
	NewEvent("x", nil)
}

func TestConstEventRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range probability did not panic")
		}
	}()
	ConstEvent("x", 1.5)
}

func TestExponentialEvent(t *testing.T) {
	e := ExponentialEvent("n", 0.001)
	if e.Q(0) != 0 {
		t.Errorf("Q(0) = %v", e.Q(0))
	}
	want := 1 - math.Exp(-0.001*100)
	if math.Abs(e.Q(100)-want) > 1e-15 {
		t.Errorf("Q(100) = %v, want %v", e.Q(100), want)
	}
}

func TestGateValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty AND": func() { AND() },
		"empty OR":  func() { OR() },
		"nil child": func() { OR(nil) },
		"bad k":     func() { KOfN(5, ConstEvent("a", 0.1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestANDOREval(t *testing.T) {
	a, b := ConstEvent("a", 0.1), ConstEvent("b", 0.2)
	and := mustTree(t, AND(a, b))
	if got := and.Eval(1); math.Abs(got-0.02) > 1e-15 {
		t.Errorf("AND = %v, want 0.02", got)
	}
	or := mustTree(t, OR(ConstEvent("a", 0.1), ConstEvent("b", 0.2)))
	want := 1 - 0.9*0.8
	if got := or.Eval(1); math.Abs(got-want) > 1e-15 {
		t.Errorf("OR = %v, want %v", got, want)
	}
}

func TestKOfNEval(t *testing.T) {
	// 2-of-3 with q = 0.1 each: 3·q²(1−q) + q³.
	q := 0.1
	tree := mustTree(t, KOfN(2, ConstEvent("a", q), ConstEvent("b", q), ConstEvent("c", q)))
	want := 3*q*q*(1-q) + q*q*q
	if got := tree.Eval(1); math.Abs(got-want) > 1e-15 {
		t.Errorf("2-of-3 = %v, want %v", got, want)
	}
}

func TestDuplicateDistinctEventsRejected(t *testing.T) {
	if _, err := New(OR(ConstEvent("x", 0.1), ConstEvent("x", 0.2))); err == nil {
		t.Error("two distinct events named x did not error")
	}
	if _, err := New(nil); err == nil {
		t.Error("nil top did not error")
	}
}

func TestSharedEventExactEval(t *testing.T) {
	// Top = OR(AND(a,b), AND(a,c)). With the same *Event a shared, the
	// naive independent evaluation would square P(a); Shannon
	// decomposition must give P = qa(qb + qc − qb·qc).
	a := ConstEvent("a", 0.5)
	b := ConstEvent("b", 0.5)
	c := ConstEvent("c", 0.5)
	tree := mustTree(t, OR(AND(a, b), AND(a, c)))
	want := 0.5 * (0.5 + 0.5 - 0.25)
	if got := tree.Eval(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("shared eval = %v, want %v", got, want)
	}
}

func TestReliabilityComplementsEval(t *testing.T) {
	tree := mustTree(t, OR(ExponentialEvent("a", 1e-4), ExponentialEvent("b", 2e-4)))
	for _, h := range []float64{0, 100, 8760} {
		if math.Abs(tree.Reliability(h)+tree.Eval(h)-1) > 1e-12 {
			t.Errorf("R+Q != 1 at %v", h)
		}
	}
}

func TestPaperFigure5Shape(t *testing.T) {
	// Figure 5: system fails if the CU subsystem OR the wheel-node
	// subsystem fails. With independent subsystems, R_sys = R_cu·R_wn.
	qCU := func(h float64) float64 { return 1 - math.Exp(-2e-4*h) }
	qWN := func(h float64) float64 { return 1 - math.Exp(-8e-4*h) }
	tree := mustTree(t, OR(NewEvent("cu", qCU), NewEvent("wheels", qWN)))
	for _, h := range []float64{100, 1000, 8760} {
		want := math.Exp(-2e-4*h) * math.Exp(-8e-4*h)
		if got := tree.Reliability(h); math.Abs(got-want) > 1e-12 {
			t.Errorf("R(%v) = %v, want %v", h, got, want)
		}
	}
}

func TestEventsSorted(t *testing.T) {
	tree := mustTree(t, OR(ConstEvent("zeta", 0.1), ConstEvent("alpha", 0.1)))
	got := tree.Events()
	if !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Errorf("Events = %v", got)
	}
}

func TestEvalMatchesCutSetBoundProperty(t *testing.T) {
	// Property: exact top probability is bounded above by the sum of
	// minimal cut-set probabilities (rare-event union bound), and is
	// within [max single cut-set prob, union bound].
	check := func(qa, qb, qc uint8) bool {
		pa := float64(qa%100) / 1000
		pb := float64(qb%100) / 1000
		pc := float64(qc%100) / 1000
		tree, err := New(OR(
			AND(ConstEvent("a", pa), ConstEvent("b", pb)),
			ConstEvent("c", pc),
		))
		if err != nil {
			return false
		}
		exact := tree.Eval(1)
		union := pa*pb + pc
		lower := math.Max(pa*pb, pc)
		return exact <= union+1e-12 && exact >= lower-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSharedEvalAgreesWithUnsharedProperty(t *testing.T) {
	// Property: when the tree happens to have no sharing, the Shannon
	// decomposition path and the direct gate path agree. Force both by
	// constructing two equivalent trees, one with a dummy shared leaf.
	check := func(qa, qb uint8) bool {
		pa := float64(qa%100) / 100
		pb := float64(qb%100) / 100
		direct, err := New(AND(ConstEvent("a", pa), ConstEvent("b", pb)))
		if err != nil {
			return false
		}
		a := ConstEvent("a", pa)
		// OR(x, x) with the same pointer is logically just x.
		sharedTree, err := New(AND(OR(a, a), ConstEvent("b", pb)))
		if err != nil {
			return false
		}
		return math.Abs(direct.Eval(1)-sharedTree.Eval(1)) < 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalUnshared(b *testing.B) {
	top := OR(
		AND(ExponentialEvent("a", 1e-4), ExponentialEvent("b", 1e-4)),
		AND(ExponentialEvent("c", 1e-4), ExponentialEvent("d", 1e-4)),
		ExponentialEvent("e", 1e-5),
	)
	tree, err := New(top)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tree.Eval(8760)
	}
}

func BenchmarkEvalSharedShannon(b *testing.B) {
	shared := make([]*Event, 10)
	for i := range shared {
		shared[i] = ConstEvent(string(rune('a'+i)), 0.01)
	}
	top := OR(
		AND(shared[0], shared[1], shared[2], shared[3], shared[4]),
		AND(shared[0], shared[5], shared[6], shared[7]),
		AND(shared[2], shared[8], shared[9]),
	)
	tree, err := New(top)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tree.Eval(1)
	}
}
