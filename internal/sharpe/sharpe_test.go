package sharpe

import (
	"math"
	"strings"
	"testing"

	"repro/internal/faulttree"
	"repro/internal/markov"
	"repro/internal/rbd"
)

func simpleChain(t *testing.T) *markov.Chain {
	t.Helper()
	b := markov.NewBuilder()
	b.Rate("up", "F", 0.001)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCTMCModel(t *testing.T) {
	m, err := NewCTMC("m", simpleChain(t), "up", []string{"F"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != "markov" || m.Name() != "m" {
		t.Errorf("identity: %s/%s", m.Name(), m.Kind())
	}
	r, err := m.Reliability(100)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-0.1)
	if math.Abs(r-want) > 1e-10 {
		t.Errorf("R(100) = %v, want %v", r, want)
	}
	mttf, err := m.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mttf-1000) > 1e-6 {
		t.Errorf("MTTF = %v, want 1000", mttf)
	}
}

func TestCTMCModelValidation(t *testing.T) {
	if _, err := NewCTMC("m", simpleChain(t), "nope", []string{"F"}); err == nil {
		t.Error("unknown initial state did not error")
	}
	if _, err := NewCTMC("m", simpleChain(t), "up", nil); err == nil {
		t.Error("no failure states did not error")
	}
	if _, err := NewCTMC("m", simpleChain(t), "up", []string{"nope"}); err == nil {
		t.Error("unknown failure state did not error")
	}
}

func TestRBDModel(t *testing.T) {
	m := NewRBD("wheels", rbd.NewSeries(
		rbd.Exponential("a", 1e-4), rbd.Exponential("b", 1e-4)), 5000)
	if m.Kind() != "rbd" {
		t.Errorf("Kind = %s", m.Kind())
	}
	r, err := m.Reliability(1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-math.Exp(-0.2)) > 1e-12 {
		t.Errorf("R = %v", r)
	}
	mttf, err := m.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mttf-5000)/5000 > 1e-5 {
		t.Errorf("MTTF = %v, want 5000", mttf)
	}
}

func TestFTModelAndHierarchy(t *testing.T) {
	sys := NewSystem()
	cu, err := NewCTMC("cu", simpleChain(t), "up", []string{"F"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Add(cu); err != nil {
		t.Fatal(err)
	}
	// Bind the fault-tree event "cuFails" to the CTMC's unreliability —
	// the Figure 5 composition pattern.
	un, err := sys.Unreliability("cu")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := faulttree.New(faulttree.OR(
		faulttree.NewEvent("cuFails", un),
		faulttree.ExponentialEvent("wheelFails", 0.002),
	))
	if err != nil {
		t.Fatal(err)
	}
	top := NewFaultTree("bbw", tree, 1000)
	if err := sys.Add(top); err != nil {
		t.Fatal(err)
	}
	r, err := top.Reliability(100)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-0.001*100) * math.Exp(-0.002*100)
	if math.Abs(r-want) > 1e-10 {
		t.Errorf("R = %v, want %v", r, want)
	}
	mttf, err := top.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mttf-1/0.003)/(1/0.003) > 1e-5 {
		t.Errorf("MTTF = %v, want %v", mttf, 1/0.003)
	}
}

func TestSystemRegistry(t *testing.T) {
	sys := NewSystem()
	if err := sys.Add(nil); err == nil {
		t.Error("nil model accepted")
	}
	m := NewRBD("x", rbd.Exponential("x", 1e-3), 0)
	if err := sys.Add(m); err != nil {
		t.Fatal(err)
	}
	if err := sys.Add(NewRBD("x", rbd.Exponential("x", 1e-3), 0)); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := sys.Model("nope"); err == nil {
		t.Error("unknown model lookup did not error")
	}
	if got := sys.Names(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Names = %v", got)
	}
	if _, err := sys.Unreliability("nope"); err == nil {
		t.Error("Unreliability of unknown model did not error")
	}
	if _, err := sys.ReliabilityFunc("nope"); err == nil {
		t.Error("ReliabilityFunc of unknown model did not error")
	}
}

func TestCurve(t *testing.T) {
	sys := NewSystem()
	if err := sys.Add(NewRBD("x", rbd.Exponential("x", 1e-3), 0)); err != nil {
		t.Fatal(err)
	}
	pts, err := sys.Curve("x", 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Hours != 0 || pts[0].R != 1 {
		t.Errorf("first point = %+v", pts[0])
	}
	if pts[10].Hours != 1000 {
		t.Errorf("last point = %+v", pts[10])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].R > pts[i-1].R {
			t.Errorf("curve not monotone at %d", i)
		}
	}
	if _, err := sys.Curve("x", 1000, 0); err == nil {
		t.Error("zero-step curve did not error")
	}
	if _, err := sys.Curve("nope", 1000, 10); err == nil {
		t.Error("unknown model curve did not error")
	}
}

func TestEvalExprBasics(t *testing.T) {
	env := Env{"lp": 1.82e-5, "x": 4}
	cases := []struct {
		in   string
		want float64
	}{
		{"1+2*3", 7},
		{"(1+2)*3", 9},
		{"2^10", 1024},
		{"2^2^3", 256}, // right-associative
		{"-x+1", -3},
		{"10*lp", 1.82e-4},
		{"1.5e3/3", 500},
		{"exp(0)", 1},
		{"ln(exp(2))", 2},
		{"sqrt(16)", 4},
		{"pow(2, 8)", 256},
		{"min(3, 5)", 3},
		{"max(3, 5)", 5},
		{"log10(1000)", 3},
		{"  1 +  1 ", 2},
		{"+5", 5},
	}
	for _, c := range cases {
		got, err := EvalExpr(c.in, env)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	for _, in := range []string{
		"", "1+", "(1", "1)", "1/0", "nope", "f(1)", "exp()", "exp(1,2)",
		"pow(1)", "ln(-1)", "sqrt(-1)", "log10(0)", "1 2", "@",
	} {
		if _, err := EvalExpr(in, Env{}); err == nil {
			t.Errorf("%q did not error", in)
		}
	}
}

const paperModelSrc = `
* Brake-by-wire reliability, FS nodes, degraded functionality mode.
var lp 1.82e-5
var lt 10*lp
var cd 0.99
var mur 1.2e3

markov cufs
  trans 0 1 2*lp*cd
  trans 0 2 2*lt*cd
  trans 0 F 2*(lp+lt)*(1-cd)
  trans 2 0 mur
  trans 1 F lp+lt
  trans 2 F lp+lt
  init 0
  fail F
end

markov wheelsfs
  trans 0 1 4*lp*cd
  trans 0 2 4*lt*cd
  trans 0 F 4*(lp+lt)*(1-cd)
  trans 2 0 mur
  trans 1 F 3*(lp+lt)
  trans 2 F 3*(lp+lt)
  init 0
  fail F
end

ftree bbw
  model cu cufs
  model wheels wheelsfs
  or sysfail cu wheels
  top sysfail
end

eval bbw reliability 8760
eval bbw mttf
eval cufs curve 8760 4
`

func TestParsePaperStyleModel(t *testing.T) {
	res, err := ParseString(paperModelSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != 3 {
		t.Fatalf("evals = %d", len(res.Evals))
	}
	m, err := res.System.Model("bbw")
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Reliability(8760)
	if err != nil {
		t.Fatal(err)
	}
	// DESIGN.md hand analysis: FS degraded system reliability ≈ 0.464.
	if r < 0.45 || r > 0.48 {
		t.Errorf("one-year FS degraded reliability = %v, want ≈0.464", r)
	}
	mttf, err := m.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: MTTF ≈ 1.2 years = 10512 h for the FS system.
	if mttf < 0.9*8760 || mttf > 1.5*8760 {
		t.Errorf("FS MTTF = %v h (%.2f years), want ≈1.2 years", mttf, mttf/8760)
	}
}

func TestParseRBDBlock(t *testing.T) {
	src := `
var rate 2.5e-4
rbd wheels
  exp wn1 rate
  exp wn2 rate
  exp wn3 rate
  exp wn4 rate
  series all wn1 wn2 wn3 wn4
  top all
end
eval wheels reliability 1000
`
	res, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.System.Model("wheels")
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Reliability(1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-4 * 2.5e-4 * 1000); math.Abs(r-want) > 1e-12 {
		t.Errorf("R = %v, want %v", r, want)
	}
}

func TestParseRBDKofnAndParallel(t *testing.T) {
	src := `
rbd sys
  exp a 1e-3
  exp b 1e-3
  exp c 1e-3
  kofn deg 2 a b c
  parallel red deg c
  top deg
end
`
	res, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := res.System.Model("sys")
	r, err := m.Reliability(100)
	if err != nil {
		t.Fatal(err)
	}
	p := math.Exp(-0.1)
	want := 3*p*p*(1-p) + p*p*p
	if math.Abs(r-want) > 1e-12 {
		t.Errorf("2-of-3 = %v, want %v", r, want)
	}
}

func TestParseFtreeKofn(t *testing.T) {
	src := `
ftree f
  const a 0.1
  const b 0.1
  const c 0.1
  kofn g 2 a b c
  top g
end
`
	res, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := res.System.Model("f")
	r, err := m.Reliability(1)
	if err != nil {
		t.Fatal(err)
	}
	q := 3*0.01*0.9 + 0.001
	if math.Abs((1-r)-q) > 1e-12 {
		t.Errorf("Q = %v, want %v", 1-r, q)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive":   "bogus x",
		"var too short":       "var x",
		"bad expression":      "var x 1+",
		"unterminated block":  "markov m\n trans a b 1",
		"end outside":         "end",
		"markov no init":      "markov m\n trans a b 1\nend",
		"markov bad line":     "markov m\n bogus\n init a\nend",
		"rbd no top":          "rbd r\n exp a 1\nend",
		"rbd undefined child": "rbd r\n series s a b\n top s\nend",
		"rbd dup node":        "rbd r\n exp a 1\n exp a 1\n top a\nend",
		"rbd bad k":           "rbd r\n exp a 1\n kofn g 9 a\n top g\nend",
		"rbd undefined top":   "rbd r\n exp a 1\n top z\nend",
		"rbd negative rate":   "rbd r\n exp a -1\n top a\nend",
		"ftree no top":        "ftree f\n const a 0.5\nend",
		"ftree bad prob":      "ftree f\n const a 1.5\n top a\nend",
		"ftree undefined":     "ftree f\n or g a b\n top g\nend",
		"ftree model missing": "ftree f\n model a nosuch\n top a\nend",
		"eval unknown model":  "eval nosuch mttf",
		"eval bad measure":    "rbd r\n exp a 1\n top a\nend\neval r bogus",
		"eval missing time":   "rbd r\n exp a 1\n top a\nend\neval r reliability",
		"eval bad steps":      "rbd r\n exp a 1\n top a\nend\neval r curve 10 zero",
		"dup model":           "rbd r\n exp a 1\n top a\nend\nrbd r\n exp a 1\n top a\nend",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: no error for %q", name, src)
		}
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	src := "* leading comment\n\n# hash comment\nvar x 1+1 # trailing\nrbd r\n exp a x*1e-3\n top a\nend\n"
	res, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vars["x"] != 2 {
		t.Errorf("x = %v", res.Vars["x"])
	}
}

func TestParserLineNumbersInErrors(t *testing.T) {
	_, err := ParseString("var ok 1\nbogus here")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %v does not cite line 2", err)
	}
}

func TestModelAccessorsAndRBDModelBinding(t *testing.T) {
	src := `
markov sub
  trans 0 F 1e-3
  init 0
  fail F
end
rbd sys
  model a sub
  model b sub
  parallel red a b
  top red
end
`
	res, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	// Accessors.
	sub, _ := res.System.Model("sub")
	cm, ok := sub.(*CTMCModel)
	if !ok || cm.Chain() == nil || cm.Kind() != "markov" {
		t.Fatalf("sub accessors: %T", sub)
	}
	sys, _ := res.System.Model("sys")
	if sys.Kind() != "rbd" {
		t.Errorf("Kind = %s", sys.Kind())
	}
	// Two identical sub-models in parallel: R = 1-(1-r)².
	r, err := sys.Reliability(100)
	if err != nil {
		t.Fatal(err)
	}
	single := math.Exp(-0.1)
	want := 1 - (1-single)*(1-single)
	if math.Abs(r-want) > 1e-10 {
		t.Errorf("R = %v, want %v", r, want)
	}
	names := res.System.Names()
	if len(names) != 2 || names[0] != "sub" || names[1] != "sys" {
		t.Errorf("Names = %v", names)
	}
}

func TestFTModelTreeAccessor(t *testing.T) {
	tree, err := faulttree.New(faulttree.ConstEvent("a", 0.25))
	if err != nil {
		t.Fatal(err)
	}
	m := NewFaultTree("f", tree, 0)
	if m.Tree() != tree || m.Kind() != "ftree" {
		t.Error("FTModel accessors broken")
	}
}

func TestCTMCReliabilityErrorPropagates(t *testing.T) {
	// A model whose evaluation fails (negative time) surfaces the error.
	m, err := NewCTMC("m", simpleChain(t), "up", []string{"F"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reliability(-5); err == nil {
		t.Error("negative horizon accepted")
	}
	// And via ReliabilityFunc it becomes NaN, never a panic.
	sys := NewSystem()
	if err := sys.Add(m); err != nil {
		t.Fatal(err)
	}
	f, err := sys.ReliabilityFunc("m")
	if err != nil {
		t.Fatal(err)
	}
	if v := f(-5); !math.IsNaN(v) {
		t.Errorf("f(-5) = %v, want NaN", v)
	}
	un, err := sys.Unreliability("m")
	if err != nil {
		t.Fatal(err)
	}
	if v := un(-5); !math.IsNaN(v) {
		t.Errorf("un(-5) = %v, want NaN", v)
	}
}

func TestParseWithVarsOverride(t *testing.T) {
	src := "var cd 0.99\nrbd r\n exp a (1-cd)*1e-2\n top a\nend\n"
	// Without override: rate = 1e-4.
	plain, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := plain.System.Model("r")
	r0, _ := m.Reliability(1000)
	// With override cd=0.9: rate = 1e-3, reliability lower.
	swept, err := ParseWithVars(strings.NewReader(src), Env{"cd": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := swept.System.Model("r")
	r1, _ := ms.Reliability(1000)
	if !(r1 < r0) {
		t.Errorf("override had no effect: %v vs %v", r1, r0)
	}
	if swept.Vars["cd"] != 0.9 {
		t.Errorf("cd = %v", swept.Vars["cd"])
	}
	if math.Abs(r0-math.Exp(-0.01*0.01*1000)) > 1e-12 {
		t.Errorf("plain r = %v", r0)
	}
}
