// Package linalg implements the small linear-algebra kernels the
// thermal RC model needs: dense and CSR matrices, dense and sparse
// Cholesky factorizations, and the implicit backward-Euler ODE stepper
// on sparse Cholesky.
//
// The Go standard library ships no numerics, and this reproduction is
// offline-only, so everything here is written from scratch. Dense
// matrices are row-major float64; sparse ones are CSR under a
// min-degree ordering, for networks beyond dense-solver territory.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed r×c matrix. It panics if r or c is not
// positive; matrix dimensions are programmer-controlled, never input data.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r×c matrix from row-major values. It panics if
// len(values) != r*c.
func NewMatrixFrom(r, c int, values []float64) *Matrix {
	if len(values) != r*c {
		panic(fmt.Sprintf("linalg: need %d values for %dx%d, got %d", r*c, r, c, len(values)))
	}
	m := NewMatrix(r, c)
	copy(m.data, values)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at row i, column j by v. The thermal network
// builder accumulates conductances, so this is a primitive.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes y = m·x. It panics on dimension mismatch.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %dx%d · %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Vector helpers. Vectors are plain []float64 so callers can use them
// without wrapping; these functions centralize the arithmetic.

// NormInf returns the max-abs norm of v.
func NormInf(v []float64) float64 {
	var mx float64
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// Mean returns the arithmetic mean of v, 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Max returns the maximum of v. It panics on an empty slice: every caller
// in this repository has at least one thermal node.
func Max(v []float64) float64 {
	if len(v) == 0 {
		panic("linalg: Max of empty vector")
	}
	mx := v[0]
	for _, x := range v[1:] {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// Min returns the minimum of v. It panics on an empty slice.
func Min(v []float64) float64 {
	if len(v) == 0 {
		panic("linalg: Min of empty vector")
	}
	mn := v[0]
	for _, x := range v[1:] {
		if x < mn {
			mn = x
		}
	}
	return mn
}
