package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve meets a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// LU is an LU factorization with partial pivoting: P*A = L*U, where L has
// a unit diagonal stored strictly below the diagonal of lu and U on and
// above it.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  int // +1 or -1, parity of the permutation
}

// Factor computes the LU factorization of the square matrix a.
// It returns ErrSingular when a pivot underflows to (near) zero.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: factor non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivoting: largest magnitude in column k at or below row k.
		p := k
		best := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				best, p = v, i
			}
		}
		pivot[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[k*n+j], lu.Data[p*n+j] = lu.Data[p*n+j], lu.Data[k*n+j]
			}
			sign = -sign
		}
		pv := lu.At(k, k)
		if math.Abs(pv) < 1e-300 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pv
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -m*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

// Solve solves A*x = b for x using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d != %d", len(b), n)
	}
	x := make([]float64, n)
	copy(x, b)
	// Apply all row interchanges first (as LAPACK dgetrs does): the stored
	// L factors the fully permuted matrix P*A, so the permutation must be
	// complete before substitution starts.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward-substitute L (unit diagonal).
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			x[i] -= f.lu.At(i, k) * x[k]
		}
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
		x[i] /= f.lu.At(i, i)
	}
	return x, nil
}

// Det returns the determinant of the factored matrix (checked against
// hand-computed determinants in TestDet).
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves A*x = b directly (factor once, solve once).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A⁻¹ or ErrSingular. TestInverse checks the LU
// solve through it (A·A⁻¹ = I).
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// SolveMatrix solves A*X = B column by column.
func SolveMatrix(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("linalg: solve shape mismatch %dx%d vs %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		x, err := f.Solve(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.Rows; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out, nil
}
