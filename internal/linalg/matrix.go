// Package linalg implements the small linear-algebra kernels the
// thermal RC model needs: dense and CSR matrices, LU and dense/sparse
// Cholesky factorizations, and the implicit backward-Euler ODE stepper.
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

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
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

// Mul returns the matrix product m·n.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.cols != n.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch: %dx%d · %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	out := NewMatrix(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < n.cols; j++ {
				out.Add(i, j, a*n.At(k, j))
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMatrix returns m + n as a new matrix.
func (m *Matrix) AddMatrix(n *Matrix) *Matrix {
	if m.rows != n.rows || m.cols != n.cols {
		panic("linalg: AddMatrix dimension mismatch")
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += n.data[i]
	}
	return out
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

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

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

// AXPY computes y += a·x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// SubVec returns a-b as a new vector.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: SubVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// AddVec returns a+b as a new vector.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: AddVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// ScaleVec returns s·v as a new vector.
func ScaleVec(s float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
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
