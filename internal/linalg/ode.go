package linalg

import (
	"errors"
	"fmt"
)

// The transient thermal model is the linear ODE
//
//	C·dT/dt = P(t) − G·T
//
// with diagonal capacitance C, conductance G and power injection P.
// BackwardEuler is unconditionally stable and is the integrator every
// transient solve uses.

// BackwardEulerFactor is the factored left-hand side (C/dt + G) of the
// implicit scheme (C/dt + G)·T₊ = C/dt·T + P. C/dt + G is SPD with
// exactly G's sparsity, so it is a sparse Cholesky factor under the
// caller's elimination order, and a step costs O(nnz(L)). The factor
// is read-only after construction, so any number of steppers — on any
// goroutines — may share it instead of each paying the factorization.
type BackwardEulerFactor struct {
	n    int
	dt   float64
	perm []int     // elimination order: perm[k] = node eliminated at step k
	cdt  []float64 // C/dt in factor order: cdt[k] = c[perm[k]]/dt
	chol *SparseCholesky
}

// NewBackwardEulerFactor factors the backward-Euler system for the
// conductance matrix g, diagonal capacitances c (length n) and fixed
// step dt (seconds) under the elimination order perm (perm[k] =
// original index eliminated at step k; nil means natural order). Every
// row of g must store its diagonal, which C/dt is added onto.
func NewBackwardEulerFactor(g *CSR, c []float64, dt float64, perm []int) (*BackwardEulerFactor, error) {
	n := g.n
	if len(c) != n {
		return nil, fmt.Errorf("linalg: capacitance length %d, want %d", len(c), n)
	}
	if dt <= 0 {
		return nil, errors.New("linalg: step size must be positive")
	}
	for i, ci := range c {
		if ci <= 0 {
			return nil, fmt.Errorf("linalg: capacitance[%d] = %g, must be positive", i, ci)
		}
	}
	lhs := &CSR{n: n, rowPtr: g.rowPtr, colIdx: g.colIdx, vals: append([]float64(nil), g.vals...)}
	for i := 0; i < n; i++ {
		k := lhs.index(i, i)
		if k < 0 {
			return nil, fmt.Errorf("linalg: conductance row %d stores no diagonal", i)
		}
		lhs.vals[k] += c[i] / dt
	}
	chol, err := FactorSparseCholeskyOrdered(lhs, perm)
	if err != nil {
		return nil, fmt.Errorf("linalg: factor backward-Euler system: %w", err)
	}
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	cdt := make([]float64, n)
	for k, i := range perm {
		cdt[k] = c[i] / dt
	}
	return &BackwardEulerFactor{n: n, dt: dt, perm: perm, cdt: cdt, chol: chol}, nil
}

// Dt returns the fixed step size.
func (f *BackwardEulerFactor) Dt() float64 { return f.dt }

// NewStepper returns a stepper over the shared factorization with its
// own workspace.
func (f *BackwardEulerFactor) NewStepper() *BackwardEulerStepper {
	return &BackwardEulerStepper{f: f, z: make([]float64, f.n)}
}

// BackwardEulerStepper integrates C·dT/dt = P − G·T with the implicit
// scheme over a BackwardEulerFactor.
type BackwardEulerStepper struct {
	f *BackwardEulerFactor
	z []float64 // right-hand side, then solution, in factor order
}

// Dt returns the fixed step size.
func (s *BackwardEulerStepper) Dt() float64 { return s.f.dt }

// StepInto advances the state t by one step under power injection p,
// writing the new state into dst without allocating. dst may alias t
// (the right-hand side is assembled in the stepper's own workspace
// before dst is written); the stepper is consequently not safe for
// concurrent use.
func (s *BackwardEulerStepper) StepInto(dst, t, p []float64) error {
	f := s.f
	if len(t) != f.n || len(p) != f.n {
		return fmt.Errorf("linalg: Step lengths t=%d p=%d, want %d", len(t), len(p), f.n)
	}
	if len(dst) != f.n {
		return fmt.Errorf("linalg: StepInto dst length %d, want %d", len(dst), f.n)
	}
	z := s.z
	for k, i := range f.perm {
		z[k] = f.cdt[k]*t[i] + p[i]
	}
	f.chol.solveNatural(z, z)
	for k, i := range f.perm {
		dst[i] = z[k]
	}
	return nil
}
