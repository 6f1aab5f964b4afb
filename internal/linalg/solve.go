package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization meets an (effectively)
// singular pivot: one below cholPivotRelTol times the matrix's largest
// element.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
// positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Cholesky is the factorization A = L·Lᵀ of a symmetric positive-definite
// matrix. Thermal conductance matrices are SPD by construction, so this is
// the dense steady-state solver.
type Cholesky struct {
	n int
	l *Matrix // lower triangular
}

// FactorCholesky computes the Cholesky factorization of a. It returns
// ErrNotSPD if a is not symmetric (within a loose tolerance) or a pivot
// is non-positive, and ErrSingular when a pivot falls below
// cholPivotRelTol times the matrix's max-abs element, so a degenerate
// conductance network fails loudly instead of amplifying rounding
// noise.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: FactorCholesky needs square matrix, got %dx%d", a.Rows(), a.Cols())
	}
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
	return &Cholesky{n: n, l: l}, nil
}

// Solve solves A·x = b using the factorization.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into the caller-supplied x without
// allocating: both triangular sweeps run in place on x. x and b may
// alias; b is otherwise not modified.
func (c *Cholesky) SolveInto(x, b []float64) error {
	if len(b) != c.n {
		return fmt.Errorf("linalg: Cholesky.Solve rhs length %d, want %d", len(b), c.n)
	}
	if len(x) != c.n {
		return fmt.Errorf("linalg: Cholesky.SolveInto dst length %d, want %d", len(x), c.n)
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
