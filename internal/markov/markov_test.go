package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func buildOrFatal(t *testing.T, b *Builder) *Chain {
	t.Helper()
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// twoStateRepairable is the classic availability model: up --λ--> down,
// down --μ--> up, with the analytic availability
// A(t) = μ/(λ+μ) + λ/(λ+μ)·e^{-(λ+μ)t}.
func twoStateRepairable(t *testing.T, lambda, mu float64) *Chain {
	t.Helper()
	b := NewBuilder()
	b.Rate("up", "down", lambda).Rate("down", "up", mu)
	return buildOrFatal(t, b)
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty chain did not error")
	}
	if _, err := NewBuilder().Rate("a", "a", 1).Build(); err == nil {
		t.Error("self-loop did not error")
	}
	if _, err := NewBuilder().Rate("a", "b", -1).Build(); err == nil {
		t.Error("negative rate did not error")
	}
	if _, err := NewBuilder().Rate("a", "b", math.NaN()).Build(); err == nil {
		t.Error("NaN rate did not error")
	}
}

func TestBuilderAddRateAccumulates(t *testing.T) {
	c := buildOrFatal(t, NewBuilder().AddRate("a", "b", 1).AddRate("a", "b", 2))
	q := c.Generator()
	if q.At(0, 1) != 3 {
		t.Errorf("accumulated rate = %v, want 3", q.At(0, 1))
	}
	if q.At(0, 0) != -3 {
		t.Errorf("diagonal = %v, want -3", q.At(0, 0))
	}
}

func TestGeneratorRowSumsZero(t *testing.T) {
	c := twoStateRepairable(t, 0.3, 2.0)
	q := c.Generator()
	for i := 0; i < q.Rows; i++ {
		sum := 0.0
		for j := 0; j < q.Cols; j++ {
			sum += q.At(i, j)
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestStateLookup(t *testing.T) {
	c := twoStateRepairable(t, 1, 1)
	if c.NumStates() != 2 {
		t.Fatalf("NumStates = %d", c.NumStates())
	}
	if i, ok := c.StateIndex("down"); !ok || i != 1 {
		t.Errorf("StateIndex(down) = %d, %v", i, ok)
	}
	if _, ok := c.StateIndex("nope"); ok {
		t.Error("StateIndex found a missing state")
	}
	if _, err := c.InitialAt("nope"); err == nil {
		t.Error("InitialAt unknown state did not error")
	}
}

func TestTransientAnalyticAvailability(t *testing.T) {
	lambda, mu := 0.4, 3.0
	c := twoStateRepairable(t, lambda, mu)
	p0, err := c.InitialAt("up")
	if err != nil {
		t.Fatal(err)
	}
	for _, horizon := range []float64{0, 0.1, 0.5, 1, 5, 100} {
		p, err := c.Transient(p0, horizon)
		if err != nil {
			t.Fatal(err)
		}
		want := mu/(lambda+mu) + lambda/(lambda+mu)*math.Exp(-(lambda+mu)*horizon)
		if math.Abs(p[0]-want) > 1e-10 {
			t.Errorf("A(%v) = %v, want %v", horizon, p[0], want)
		}
	}
}

func TestTransientValidation(t *testing.T) {
	c := twoStateRepairable(t, 1, 1)
	if _, err := c.Transient([]float64{1}, 1); err == nil {
		t.Error("short distribution did not error")
	}
	if _, err := c.Transient([]float64{0.5, 0.4}, 1); err == nil {
		t.Error("non-normalized distribution did not error")
	}
	if _, err := c.Transient([]float64{1, 0}, -1); err == nil {
		t.Error("negative horizon did not error")
	}
	if _, err := c.Transient([]float64{1, 0}, math.Inf(1)); err == nil {
		t.Error("infinite horizon did not error")
	}
}

func TestTransientMatchesUniformization(t *testing.T) {
	// A three-state chain with moderate stiffness.
	b := NewBuilder()
	b.Rate("0", "1", 0.8).Rate("1", "0", 5.0).Rate("1", "2", 0.3).Rate("0", "2", 0.05)
	c := buildOrFatal(t, b)
	p0, _ := c.InitialAt("0")
	for _, horizon := range []float64{0.5, 2, 10, 50} {
		pe, err := c.Transient(p0, horizon)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := c.TransientUniform(p0, horizon, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pe {
			if math.Abs(pe[i]-pu[i]) > 1e-8 {
				t.Errorf("t=%v state %d: expm %v vs uniform %v", horizon, i, pe[i], pu[i])
			}
		}
	}
}

func TestTransientUniformRejectsExtremeStiffness(t *testing.T) {
	b := NewBuilder()
	b.Rate("0", "1", 1e-5).Rate("1", "0", 1e4)
	c := buildOrFatal(t, b)
	p0, _ := c.InitialAt("0")
	if _, err := c.TransientUniform(p0, 1e5, 1e-10); err == nil {
		t.Error("extreme q*t did not error")
	}
}

func TestTransientUniformNoTransitions(t *testing.T) {
	b := NewBuilder()
	b.State("only")
	c := buildOrFatal(t, b)
	p, err := c.TransientUniform([]float64{1}, 10, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 1 {
		t.Errorf("p = %v", p)
	}
}

func TestTransientZeroHorizon(t *testing.T) {
	c := twoStateRepairable(t, 1, 2)
	p0 := []float64{0.25, 0.75}
	p, err := c.Transient(p0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 0.25 || p[1] != 0.75 {
		t.Errorf("p = %v", p)
	}
}

func TestMTTAPureDeathChain(t *testing.T) {
	// 0 --r0--> 1 --r1--> dead: MTTA = 1/r0 + 1/r1.
	r0, r1 := 0.5, 0.125
	b := NewBuilder()
	b.Rate("0", "1", r0).Rate("1", "dead", r1)
	c := buildOrFatal(t, b)
	p0, _ := c.InitialAt("0")
	got, err := c.MTTA(p0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1/r0 + 1/r1
	if math.Abs(got-want) > 1e-10 {
		t.Errorf("MTTA = %v, want %v", got, want)
	}
}

func TestMTTAWithRepair(t *testing.T) {
	// up --λ--> down --μ--> up, down --δ--> dead.
	// MTTF from up: (1/λ)·(1 + λ·μ/(... )) — derive via first-step analysis:
	// m_up = 1/λ + m_down; m_down = 1/(μ+δ) + μ/(μ+δ)·m_up.
	lambda, mu, delta := 0.2, 5.0, 0.5
	b := NewBuilder()
	b.Rate("up", "down", lambda).Rate("down", "up", mu).Rate("down", "dead", delta)
	c := buildOrFatal(t, b)
	p0, _ := c.InitialAt("up")
	got, err := c.MTTA(p0)
	if err != nil {
		t.Fatal(err)
	}
	// Solve the two first-step equations analytically:
	// m_up = 1/λ + m_down, m_down = 1/(μ+δ) + (μ/(μ+δ))·m_up
	// ⇒ m_up = (1/λ + 1/(μ+δ)) / (1 − μ/(μ+δ)).
	mDownCoeff := mu / (mu + delta)
	mUp := (1/lambda + 1/(mu+delta)) / (1 - mDownCoeff)
	if math.Abs(got-mUp)/mUp > 1e-10 {
		t.Errorf("MTTA = %v, want %v", got, mUp)
	}
}

func TestMTTAExplicitTargets(t *testing.T) {
	// Same chain, but treat "down" itself as the failure target.
	lambda, mu := 0.2, 5.0
	c := twoStateRepairable(t, lambda, mu)
	p0, _ := c.InitialAt("up")
	got, err := c.MTTA(p0, "down")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1/lambda) > 1e-12 {
		t.Errorf("MTTA to down = %v, want %v", got, 1/lambda)
	}
}

func TestMTTAUnreachableIsInf(t *testing.T) {
	// Two disconnected components; mass starting in the recurrent one
	// never reaches the absorbing state.
	b := NewBuilder()
	b.Rate("a", "b", 1).Rate("b", "a", 1)
	b.Rate("c", "dead", 1)
	c := buildOrFatal(t, b)
	p0, _ := c.InitialAt("a")
	got, err := c.MTTA(p0, "dead")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("MTTA = %v, want +Inf", got)
	}
}

func TestMTTANoAbsorbing(t *testing.T) {
	c := twoStateRepairable(t, 1, 1)
	p0, _ := c.InitialAt("up")
	if _, err := c.MTTA(p0); err == nil {
		t.Error("MTTA with no absorbing states did not error")
	}
	if _, err := c.MTTA(p0, "nope"); err == nil {
		t.Error("MTTA with unknown target did not error")
	}
}

func TestAbsorbingDetection(t *testing.T) {
	b := NewBuilder()
	b.Rate("0", "F", 1)
	b.State("iso")
	c := buildOrFatal(t, b)
	abs := c.Absorbing()
	if len(abs) != 2 {
		t.Fatalf("Absorbing = %v", abs)
	}
}

func TestProbIn(t *testing.T) {
	c := twoStateRepairable(t, 1, 1)
	p := []float64{0.3, 0.7}
	got, err := c.ProbIn(p, "up", "down")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-15 {
		t.Errorf("ProbIn all = %v", got)
	}
	if _, err := c.ProbIn(p, "nope"); err == nil {
		t.Error("ProbIn unknown state did not error")
	}
}

func TestTransientDistributionProperty(t *testing.T) {
	// Property: for random small generators and horizons, the transient
	// distribution stays on the simplex.
	check := func(r1, r2, r3, r4 uint16, hRaw uint16) bool {
		b := NewBuilder()
		b.Rate("0", "1", float64(r1)/1000)
		b.Rate("1", "2", float64(r2)/1000)
		b.Rate("2", "0", float64(r3)/1000)
		b.Rate("1", "0", float64(r4)/1000)
		c, err := b.Build()
		if err != nil {
			return false
		}
		p0, _ := c.InitialAt("0")
		p, err := c.Transient(p0, float64(hRaw)/100)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleMatchesAnalytic(t *testing.T) {
	// Monte-Carlo cross-validation of the transient solver.
	lambda, mu := 2.0, 8.0
	c := twoStateRepairable(t, lambda, mu)
	p0, _ := c.InitialAt("up")
	horizon := 0.7
	want, err := c.Transient(p0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRand(42)
	const trials = 40000
	upCount := 0
	for i := 0; i < trials; i++ {
		state, _, err := c.Sample(rng, "up", horizon)
		if err != nil {
			t.Fatal(err)
		}
		if state == "up" {
			upCount++
		}
	}
	got := float64(upCount) / trials
	if math.Abs(got-want[0]) > 0.01 {
		t.Errorf("MC P(up) = %v, analytic %v", got, want[0])
	}
}

func TestSampleAbsorbs(t *testing.T) {
	b := NewBuilder()
	b.Rate("0", "dead", 10)
	c := buildOrFatal(t, b)
	rng := des.NewRand(7)
	state, at, err := c.Sample(rng, "0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if state != "dead" || at >= 1000 {
		t.Errorf("Sample = %q at %v", state, at)
	}
	if _, _, err := c.Sample(rng, "nope", 1); err == nil {
		t.Error("Sample unknown start did not error")
	}
}

// TestPaperStyleStiffChain exercises the exact stiffness profile of the
// paper's models: fault rates ~1e-4/h, repair ~1e3/h, one-year horizon.
func TestPaperStyleStiffChain(t *testing.T) {
	lp, lt, mu := 1.82e-5, 1.82e-4, 1.2e3
	b := NewBuilder()
	b.Rate("0", "1", 2*lp*0.99)
	b.Rate("0", "2", 2*lt*0.99)
	b.Rate("0", "F", 2*(lp+lt)*0.01)
	b.Rate("2", "0", mu)
	b.Rate("1", "F", lp+lt)
	b.Rate("2", "F", lp+lt)
	c := buildOrFatal(t, b)
	p0, _ := c.InitialAt("0")
	p, err := c.Transient(p0, 8760)
	if err != nil {
		t.Fatal(err)
	}
	fIdx, _ := c.StateIndex("F")
	r := 1 - p[fIdx]
	// Hand analysis (DESIGN.md §4) puts the CU FS one-year reliability
	// near 0.82; the solver must agree to a few parts in a thousand.
	if r < 0.81 || r > 0.84 {
		t.Errorf("CU FS one-year reliability = %v, want ≈0.82", r)
	}
	// State 2 has a ~3 s dwell time: its mass must be tiny but nonnegative.
	i2, _ := c.StateIndex("2")
	if p[i2] < 0 || p[i2] > 1e-5 {
		t.Errorf("repair-state mass = %v", p[i2])
	}
}

func BenchmarkTransientStiff(b *testing.B) {
	lp, lt, mu := 1.82e-5, 1.82e-4, 1.2e3
	bd := NewBuilder()
	bd.Rate("0", "1", 2*lp).Rate("0", "2", 2*lt).Rate("2", "0", mu)
	bd.Rate("1", "F", lp+lt).Rate("2", "F", lp+lt)
	c, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	p0, _ := c.InitialAt("0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transient(p0, 8760); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMTTA(b *testing.B) {
	bd := NewBuilder()
	bd.Rate("0", "1", 0.1).Rate("1", "0", 10).Rate("1", "F", 0.01).Rate("0", "F", 0.001)
	c, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	p0, _ := c.InitialAt("0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.MTTA(p0); err != nil {
			b.Fatal(err)
		}
	}
}
