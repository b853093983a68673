package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

const tol = 1e-10

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewMatrixShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0, 1) did not panic")
		}
	}()
	NewMatrix(0, 1)
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I[%d,%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	sum := a.Plus(b)
	if sum.At(0, 0) != 6 || sum.At(1, 1) != 12 {
		t.Errorf("Plus wrong: %v", sum)
	}
	diff := b.Minus(a)
	if diff.At(0, 1) != 4 || diff.At(1, 0) != 4 {
		t.Errorf("Minus wrong: %v", diff)
	}
	sc := a.Scale(2)
	if sc.At(1, 0) != 6 {
		t.Errorf("Scale wrong: %v", sc)
	}
	// a must be unchanged (value semantics of the helpers).
	if a.At(0, 0) != 1 {
		t.Error("Plus/Scale mutated receiver")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	p := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if p.MaxAbsDiff(want) > tol {
		t.Errorf("Mul = %v, want %v", p, want)
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 1, 1}
	got := a.MulVec(x)
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
	y := []float64{1, 2}
	got = a.VecMul(y)
	if got[0] != 9 || got[1] != 12 || got[2] != 15 {
		t.Errorf("VecMul = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("Transpose = %v", at)
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{1, -7}, {-2, 3}})
	if got := a.Norm1(); got != 10 {
		t.Errorf("Norm1 = %v, want 10", got)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], tol) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("singular solve did not error")
	}
}

func TestFactorNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Factor(a); err == nil {
		t.Error("non-square factor did not error")
	}
}

func TestSolveWrongLength(t *testing.T) {
	f, err := Factor(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Error("wrong rhs length did not error")
	}
}

func TestDet(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -6, tol) {
		t.Errorf("Det = %v, want -6", f.Det())
	}
	id, _ := Factor(Identity(5))
	if !almostEq(id.Det(), 1, tol) {
		t.Errorf("Det(I) = %v", id.Det())
	}
}

func TestInverse(t *testing.T) {
	a := FromRows([][]float64{
		{3, 0, 2},
		{2, 0, -2},
		{0, 1, 1},
	})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Mul(inv).MaxAbsDiff(Identity(3)); got > tol {
		t.Errorf("A*A⁻¹ differs from I by %v", got)
	}
}

// randomDiagDominant builds a well-conditioned random matrix from quick's
// generated values by making it strictly diagonally dominant.
func randomDiagDominant(vals []float64, n int) *Matrix {
	a := NewMatrix(n, n)
	k := 0
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			v := math.Mod(vals[k%len(vals)], 10)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			k++
			if i != j {
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
		}
		a.Set(i, i, rowSum+1)
	}
	return a
}

func TestSolveResidualProperty(t *testing.T) {
	check := func(vals []float64, bRaw []float64) bool {
		if len(vals) < 4 || len(bRaw) < 2 {
			return true
		}
		n := 2 + len(vals)%3
		a := randomDiagDominant(vals, n)
		b := make([]float64, n)
		for i := range b {
			v := math.Mod(bRaw[i%len(bRaw)], 100)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			b[i] = v
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := a.MulVec(x)
		for i := range r {
			if !almostEq(r[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExpmZero(t *testing.T) {
	e, err := Expm(NewMatrix(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxAbsDiff(Identity(3)) > tol {
		t.Errorf("expm(0) = %v", e)
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -2}})
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.At(0, 0), math.E, 1e-12) {
		t.Errorf("e^1 = %v", e.At(0, 0))
	}
	if !almostEq(e.At(1, 1), math.Exp(-2), 1e-12) {
		t.Errorf("e^-2 = %v", e.At(1, 1))
	}
	if !almostEq(e.At(0, 1), 0, 1e-14) || !almostEq(e.At(1, 0), 0, 1e-14) {
		t.Error("off-diagonal nonzero")
	}
}

func TestExpmNilpotent(t *testing.T) {
	// For nilpotent N with N²=0, e^N = I + N exactly.
	a := FromRows([][]float64{{0, 5}, {0, 0}})
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{1, 5}, {0, 1}})
	if e.MaxAbsDiff(want) > 1e-12 {
		t.Errorf("expm nilpotent = %v", e)
	}
}

func TestExpmRotation(t *testing.T) {
	// exp([[0,-θ],[θ,0]]) is a rotation by θ.
	theta := 0.7
	a := FromRows([][]float64{{0, -theta}, {theta, 0}})
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.At(0, 0), math.Cos(theta), 1e-12) ||
		!almostEq(e.At(1, 0), math.Sin(theta), 1e-12) {
		t.Errorf("rotation = %v", e)
	}
}

func TestExpmLargeNormScaling(t *testing.T) {
	// Large norm exercises the scaling-and-squaring path; compare against
	// the analytic exponential of a 2x2 with known eigenstructure:
	// A = [[-a, a], [b, -b]] has eigenvalues 0 and -(a+b).
	a, b := 900.0, 300.0
	m := FromRows([][]float64{{-a, a}, {b, -b}})
	e, err := Expm(m)
	if err != nil {
		t.Fatal(err)
	}
	s := a + b
	decay := math.Exp(-s)
	want := FromRows([][]float64{
		{(b + a*decay) / s, a * (1 - decay) / s},
		{b * (1 - decay) / s, (a + b*decay) / s},
	})
	if e.MaxAbsDiff(want) > 1e-9 {
		t.Errorf("expm large = %v, want %v", e, want)
	}
}

func TestExpmAdditivityProperty(t *testing.T) {
	// For commuting matrices (sI), e^(A+A) = (e^A)².
	check := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		a := NewMatrix(2, 2)
		for i := range a.Data {
			v := math.Mod(raw[i%len(raw)], 3)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0.5
			}
			a.Data[i] = v
		}
		e1, err := Expm(a)
		if err != nil {
			return false
		}
		e2, err := Expm(a.Scale(2))
		if err != nil {
			return false
		}
		return e2.MaxAbsDiff(e1.Mul(e1)) < 1e-8*(1+e2.Norm1())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExpmNonFinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, math.NaN())
	if _, err := Expm(a); err == nil {
		t.Error("expm of NaN matrix did not error")
	}
	if _, err := Expm(NewMatrix(2, 3)); err == nil {
		t.Error("expm of non-square matrix did not error")
	}
}

func TestExpmStiffGenerator(t *testing.T) {
	// A generator like the paper's: rates spanning 8 orders of magnitude,
	// horizon one year (8760 h). Row sums of e^(Qt) must stay 1 and all
	// entries in [0,1].
	lp, lt, mu := 1.82e-5, 1.82e-4, 1.2e3
	q := FromRows([][]float64{
		{-(2*lp + 2*lt), 2 * lp, 2 * lt, 0},
		{0, -(lp + lt), 0, lp + lt},
		{mu, 0, -(mu + lp + lt), lp + lt},
		{0, 0, 0, 0},
	})
	e, err := Expm(q.Scale(8760))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sum := 0.0
		for j := 0; j < 4; j++ {
			v := e.At(i, j)
			if v < -1e-9 || v > 1+1e-9 {
				t.Errorf("P[%d,%d] = %v out of [0,1]", i, j, v)
			}
			sum += v
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestPadeCoeffsKnown(t *testing.T) {
	// [3/3] Padé of e^x: numerator 1 + x/2 + x²/10 + x³/120.
	b := padeCoeffs(3)
	want := []float64{1, 0.5, 0.1, 1.0 / 120}
	for i := range want {
		if !almostEq(b[i], want[i], 1e-15) {
			t.Errorf("b[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func BenchmarkExpm5x5(b *testing.B) {
	lp, lt, mu, muOm := 1.82e-5, 1.82e-4, 1.2e3, 2.25e3
	q := FromRows([][]float64{
		{-(4*lp + 4*lt), 4 * lp, 2 * lt, 2 * lt, 0},
		{0, -(3 * (lp + lt)), 0, 0, 3 * (lp + lt)},
		{mu, 0, -(mu + 3*(lp+lt)), 0, 3 * (lp + lt)},
		{muOm, 0, 0, -(muOm + 3*(lp+lt)), 3 * (lp + lt)},
		{0, 0, 0, 0, 0},
	}).Scale(8760)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Expm(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve10(b *testing.B) {
	n := 10
	vals := make([]float64, n*n)
	for i := range vals {
		vals[i] = float64(i%7) - 3
	}
	a := randomDiagDominant(vals, n)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
