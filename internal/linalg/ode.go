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
// implicit scheme (C/dt + G)·T₊ = C/dt·T + P. It is read-only after
// construction, so any number of steppers — on any goroutines — may
// share one factorization instead of each paying the O(n³) factor.
type BackwardEulerFactor struct {
	n    int
	dt   float64
	caps []float64 // diagonal capacitances (copy)
	lu   *LU
}

// NewBackwardEulerFactor factors the backward-Euler system for
// conductance matrix g (n×n), diagonal capacitances c (length n) and
// fixed step dt (seconds).
func NewBackwardEulerFactor(g *Matrix, c []float64, dt float64) (*BackwardEulerFactor, error) {
	n := g.Rows()
	if g.Cols() != n {
		return nil, fmt.Errorf("linalg: conductance matrix must be square, got %dx%d", n, g.Cols())
	}
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
	lhs := g.Clone()
	for i := 0; i < n; i++ {
		lhs.Add(i, i, c[i]/dt)
	}
	lu, err := FactorLU(lhs)
	if err != nil {
		return nil, fmt.Errorf("linalg: factor backward-Euler system: %w", err)
	}
	cc := make([]float64, n)
	copy(cc, c)
	return &BackwardEulerFactor{n: n, dt: dt, caps: cc, lu: lu}, nil
}

// Dt returns the fixed step size.
func (f *BackwardEulerFactor) Dt() float64 { return f.dt }

// NewStepper returns a stepper over the shared factorization with its
// own workspace.
func (f *BackwardEulerFactor) NewStepper() *BackwardEulerStepper {
	return &BackwardEulerStepper{f: f, rhs: make([]float64, f.n)}
}

// BackwardEulerStepper integrates C·dT/dt = P − G·T with the implicit
// scheme over a BackwardEulerFactor, so stepping is O(n²) per step.
type BackwardEulerStepper struct {
	f   *BackwardEulerFactor
	rhs []float64 // workspace for StepInto, so stepping never allocates
}

// NewBackwardEulerStepper builds a stepper for conductance matrix g
// (n×n), diagonal capacitances c (length n) and fixed step dt (seconds)
// over a factorization of its own.
func NewBackwardEulerStepper(g *Matrix, c []float64, dt float64) (*BackwardEulerStepper, error) {
	f, err := NewBackwardEulerFactor(g, c, dt)
	if err != nil {
		return nil, err
	}
	return f.NewStepper(), nil
}

// Dt returns the fixed step size.
func (s *BackwardEulerStepper) Dt() float64 { return s.f.dt }

// Step advances the state t by one step under power injection p and
// returns the new state. t and p are not modified.
func (s *BackwardEulerStepper) Step(t, p []float64) ([]float64, error) {
	next := make([]float64, s.f.n)
	if err := s.StepInto(next, t, p); err != nil {
		return nil, err
	}
	return next, nil
}

// StepInto advances the state t by one step under power injection p,
// writing the new state into dst without allocating. dst may alias t
// (the right-hand side is assembled in an internal workspace before dst
// is written); the stepper is consequently not safe for concurrent use.
func (s *BackwardEulerStepper) StepInto(dst, t, p []float64) error {
	f := s.f
	if len(t) != f.n || len(p) != f.n {
		return fmt.Errorf("linalg: Step lengths t=%d p=%d, want %d", len(t), len(p), f.n)
	}
	if len(dst) != f.n {
		return fmt.Errorf("linalg: StepInto dst length %d, want %d", len(dst), f.n)
	}
	for i := range s.rhs {
		s.rhs[i] = f.caps[i]/f.dt*t[i] + p[i]
	}
	return f.lu.SolveInto(dst, s.rhs)
}
