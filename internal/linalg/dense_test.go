package linalg

import (
	"fmt"
	"math"
)

// The dense reference implementations the production sparse code is
// tested against: a row-major Matrix that tests assemble the same Add
// sequences into, and the textbook dense Cholesky factorization.

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

// denseCholesky is the textbook factorization A = L·Lᵀ of a symmetric
// positive-definite dense matrix: the oracle the production
// SparseCholesky is checked against. Its natural-order factor and
// solves must match it bit for bit.
type denseCholesky struct {
	n int
	l *Matrix // lower triangular
}

// factorDenseCholesky computes the Cholesky factorization of the
// square matrix a under the same contract as FactorSparseCholesky:
// ErrNotSPD if a is not symmetric (within a loose tolerance) or a
// pivot is clearly negative, ErrSingular when a pivot falls below
// cholPivotRelTol times the matrix's max-abs element.
func factorDenseCholesky(a *Matrix) (*denseCholesky, error) {
	if !a.IsSymmetric(1e-8 * (1 + a.MaxAbs())) {
		return nil, ErrNotSPD
	}
	n := a.Rows()
	l := NewMatrix(n, n)
	tiny := cholPivotRelTol * a.MaxAbs()
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= tiny {
			// A pivot clearly below zero means indefinite; one within
			// rounding noise of zero means singular to working
			// precision (rounding can push it to either side of 0).
			if d <= -tiny {
				return nil, ErrNotSPD
			}
			return nil, ErrSingular
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &denseCholesky{n: n, l: l}, nil
}

// Solve solves A·x = b using the factorization.
func (c *denseCholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into the caller-supplied x without
// allocating: both triangular sweeps run in place on x. x and b may
// alias; b is otherwise not modified.
func (c *denseCholesky) SolveInto(x, b []float64) error {
	if len(b) != c.n {
		return fmt.Errorf("linalg: denseCholesky.Solve rhs length %d, want %d", len(b), c.n)
	}
	if len(x) != c.n {
		return fmt.Errorf("linalg: denseCholesky.SolveInto dst length %d, want %d", len(x), c.n)
	}
	// L·y = b, with y accumulated in x (x[j] for j < i already holds y).
	for i := 0; i < c.n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	// Lᵀ·x = y in place: x[j] for j > i is already the final solution,
	// x[i] still holds y[i] when it is read.
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < c.n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return nil
}
