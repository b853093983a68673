// Package linalg provides the small dense-matrix linear algebra needed by
// the continuous-time Markov chain solvers: storage, arithmetic, norms,
// LU factorization with partial pivoting, and linear solves.
//
// The reliability models in this repository have at most a handful of
// states, so the implementation favours clarity and numerical robustness
// over asymptotic performance; everything is plain float64 with
// row-major storage.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must share a length.
// The linalg tests build their reference matrices with it.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		panic("linalg: FromRows with no rows")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Add increments the element at (r, c) by v.
func (m *Matrix) Add(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Scale returns a new matrix equal to s*m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Plus returns m + other.
func (m *Matrix) Plus(other *Matrix) *Matrix {
	m.mustSameShape(other)
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] += v
	}
	return out
}

// Minus returns m - other.
func (m *Matrix) Minus(other *Matrix) *Matrix {
	m.mustSameShape(other)
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] -= v
	}
	return out
}

// Mul returns the matrix product m*other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: mul shape mismatch %dx%d * %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			row := other.Data[k*other.Cols : (k+1)*other.Cols]
			outRow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, b := range row {
				outRow[j] += a * b
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x. TestSolveResidualProperty
// checks Solve's residual A·x − b through it.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("linalg: mulvec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// VecMul returns the vector-matrix product x*m (x treated as a row vector).
func (m *Matrix) VecMul(x []float64) []float64 {
	if m.Rows != len(x) {
		panic(fmt.Sprintf("linalg: vecmul shape mismatch %d * %dx%d", len(x), m.Rows, m.Cols))
	}
	out := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Norm1 returns the maximum absolute column sum (the induced 1-norm).
func (m *Matrix) Norm1() float64 {
	best := 0.0
	for j := 0; j < m.Cols; j++ {
		s := 0.0
		for i := 0; i < m.Rows; i++ {
			s += math.Abs(m.At(i, j))
		}
		if s > best {
			best = s
		}
	}
	return best
}

// MaxAbsDiff returns the largest absolute element-wise difference: the
// comparison TestInverse and the Expm tests judge results by.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	m.mustSameShape(other)
	best := 0.0
	for i, v := range m.Data {
		if d := math.Abs(v - other.Data[i]); d > best {
			best = d
		}
	}
	return best
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func (m *Matrix) mustSameShape(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
}
