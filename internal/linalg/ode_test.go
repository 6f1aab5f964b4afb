package linalg

import (
	"math"
	"testing"
)

// csrOf compresses a dense matrix into CSR, storing every nonzero and
// the whole diagonal.
func csrOf(a *Matrix) *CSR {
	b := NewSparseBuilder(a.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if v := a.At(i, j); v != 0 || i == j {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// newStepper factors the backward-Euler system of the dense conductance
// matrix g in natural order and returns a stepper over it.
func newStepper(t *testing.T, g *Matrix, c []float64, dt float64) *BackwardEulerStepper {
	t.Helper()
	f, err := NewBackwardEulerFactor(csrOf(g), c, dt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f.NewStepper()
}

// advance runs steps in-place backward-Euler steps from state under p.
func advance(t *testing.T, st *BackwardEulerStepper, state, p []float64, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		if err := st.StepInto(state, state, p); err != nil {
			t.Fatal(err)
		}
	}
}

// A single RC node: C·dT/dt = P − G·T has the closed form
// T(t) = P/G + (T0 − P/G)·exp(−G·t/C).
func TestBackwardEulerSingleNodeConvergesToAnalytic(t *testing.T) {
	g := NewMatrixFrom(1, 1, []float64{2.0}) // G = 2 W/K
	c := []float64{4.0}                      // C = 4 J/K
	p := []float64{10.0}                     // P = 10 W
	dt := 0.001
	st := newStepper(t, g, c, dt)
	state := []float64{0}
	steps := 2000
	advance(t, st, state, p, steps)
	tEnd := float64(steps) * dt
	analytic := 5.0 + (0-5.0)*math.Exp(-2.0*tEnd/4.0)
	if !almostEq(state[0], analytic, 0.01) {
		t.Errorf("T(%v) = %v, analytic %v", tEnd, state[0], analytic)
	}
}

func TestBackwardEulerReachesSteadyState(t *testing.T) {
	// Two coupled nodes; at steady state G·T = P.
	g := NewMatrixFrom(2, 2, []float64{3, -1, -1, 2})
	c := []float64{1, 1}
	p := []float64{5, 0}
	st := newStepper(t, g, c, 0.05)
	state := []float64{0, 0}
	advance(t, st, state, p, 5000)
	chol, err := factorDenseCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chol.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(state, want, 1e-6) {
		t.Errorf("steady state = %v, want %v", state, want)
	}
}

func TestBackwardEulerStability(t *testing.T) {
	// Huge step on a stiff system must not blow up (unconditional stability).
	g := NewMatrixFrom(2, 2, []float64{1000, -1, -1, 1000})
	c := []float64{1e-3, 1e-3}
	p := []float64{1, 1}
	st := newStepper(t, g, c, 10.0)
	state := []float64{100, -100}
	for i := 0; i < 50; i++ {
		advance(t, st, state, p, 1)
		if math.IsNaN(state[0]) || math.Abs(state[0]) > 1e6 {
			t.Fatalf("diverged at step %d: %v", i, state)
		}
	}
}

func TestBackwardEulerAgreesWithRK4(t *testing.T) {
	g := NewMatrixFrom(2, 2, []float64{5, -2, -2, 4})
	c := []float64{2, 3}
	p := []float64{7, 1}
	dt := 1e-4
	st := newStepper(t, g, c, dt)
	be := []float64{0, 0}
	rk := []float64{0, 0}
	for i := 0; i < 5000; i++ {
		advance(t, st, be, p, 1)
		rk = rk4Step(g, c, rk, p, dt)
	}
	if !vecAlmostEq(be, rk, 1e-3) {
		t.Errorf("backward Euler %v vs RK4 %v", be, rk)
	}
}

// Stepping under a fill-reducing order gathers the right-hand side into
// factor order and scatters the solution back; it must agree with the
// natural-order integration to rounding, and with a dense Cholesky
// solve of the same system step for step.
func TestBackwardEulerOrderedMatchesNatural(t *testing.T) {
	g, a := gridLaplacian(6, 5, 0.7, 0.03)
	n := a.N()
	c := make([]float64, n)
	p := make([]float64, n)
	for i := range c {
		c[i] = 0.5 + float64(i%4)
		p[i] = float64((i * 7) % 5)
	}
	const dt = 0.2
	perm := MinDegreeOrdering(a)
	ordered, err := NewBackwardEulerFactor(a, c, dt, perm)
	if err != nil {
		t.Fatal(err)
	}
	natural, err := NewBackwardEulerFactor(a, c, dt, nil)
	if err != nil {
		t.Fatal(err)
	}
	lhs := g.Clone()
	for i := 0; i < n; i++ {
		lhs.Add(i, i, c[i]/dt)
	}
	ref, err := factorDenseCholesky(lhs)
	if err != nil {
		t.Fatal(err)
	}
	so, sn := ordered.NewStepper(), natural.NewStepper()
	xo, xn, xr := make([]float64, n), make([]float64, n), make([]float64, n)
	rhs := make([]float64, n)
	for step := 0; step < 50; step++ {
		advance(t, so, xo, p, 1)
		advance(t, sn, xn, p, 1)
		for i := range rhs {
			rhs[i] = c[i]/dt*xr[i] + p[i]
		}
		if err := ref.SolveInto(xr, rhs); err != nil {
			t.Fatal(err)
		}
		for i := range xo {
			if math.Abs(xo[i]-xn[i]) > 1e-12*(1+math.Abs(xn[i])) || math.Abs(xo[i]-xr[i]) > 1e-12*(1+math.Abs(xr[i])) {
				t.Fatalf("step %d node %d: ordered %v natural %v dense %v", step, i, xo[i], xn[i], xr[i])
			}
		}
	}
	if ordered.Dt() != dt {
		t.Errorf("Dt = %v", ordered.Dt())
	}
}

func TestBackwardEulerStepperValidation(t *testing.T) {
	g := csrOf(Identity(2))
	c := []float64{1, 1}
	noDiag := NewSparseBuilder(2)
	noDiag.Add(0, 0, 1)
	cases := []struct {
		name string
		f    func() error
	}{
		{"cap length", func() error {
			_, err := NewBackwardEulerFactor(g, []float64{1}, 0.1, nil)
			return err
		}},
		{"zero dt", func() error {
			_, err := NewBackwardEulerFactor(g, c, 0, nil)
			return err
		}},
		{"negative capacitance", func() error {
			_, err := NewBackwardEulerFactor(g, []float64{1, -1}, 0.1, nil)
			return err
		}},
		{"missing diagonal", func() error {
			_, err := NewBackwardEulerFactor(noDiag.Build(), c, 0.1, nil)
			return err
		}},
		{"bad permutation", func() error {
			_, err := NewBackwardEulerFactor(g, c, 0.1, []int{0, 0})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.f() == nil {
				t.Error("want error, got nil")
			}
		})
	}
	f, err := NewBackwardEulerFactor(g, c, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := f.NewStepper()
	if st.Dt() != 0.1 {
		t.Errorf("Dt = %v", st.Dt())
	}
	if err := st.StepInto(make([]float64, 2), []float64{1}, []float64{1, 1}); err == nil {
		t.Error("StepInto with short state should error")
	}
}

// StepInto writes dst without touching t or p, so stepping in place
// (dst aliasing t) gives the same state as stepping into a fresh
// vector, and neither form allocates.
func TestStepIntoAliasesAndDoesNotAllocate(t *testing.T) {
	_, a := gridLaplacian(3, 3, 1, 0.1)
	n := a.N()
	c := make([]float64, n)
	state := make([]float64, n)
	p := make([]float64, n)
	for i := range c {
		c[i] = 1 + float64(i)
		state[i] = float64(i % 3)
	}
	p[4] = 4
	f, err := NewBackwardEulerFactor(a, c, 0.1, MinDegreeOrdering(a))
	if err != nil {
		t.Fatal(err)
	}
	s := f.NewStepper()
	want := make([]float64, n)
	if err := s.StepInto(want, state, p); err != nil {
		t.Fatal(err)
	}
	alias := append([]float64(nil), state...)
	if err := s.StepInto(alias, alias, p); err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(alias, want, 0) {
		t.Errorf("aliased StepInto = %v, want %v", alias, want)
	}
	if err := s.StepInto(make([]float64, 1), state, p); err == nil {
		t.Error("short dst accepted")
	}
	got := make([]float64, n)
	if n := testing.AllocsPerRun(100, func() {
		if err := s.StepInto(got, state, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("StepInto allocates %v per run", n)
	}
}

// rk4Step advances C·dT/dt = p − G·t by one explicit classical
// Runge-Kutta step of size dt and returns the new state. Explicit
// integration of a stiff RC network needs small dt; this is the
// reference BackwardEulerStepper is cross-validated against.
func rk4Step(g *Matrix, c, t, p []float64, dt float64) []float64 {
	deriv := func(state []float64) []float64 {
		gt := g.MulVec(state)
		d := make([]float64, len(state))
		for i := range d {
			d[i] = (p[i] - gt[i]) / c[i]
		}
		return d
	}
	k1 := deriv(t)
	k2 := deriv(addScaled(t, dt/2, k1))
	k3 := deriv(addScaled(t, dt/2, k2))
	k4 := deriv(addScaled(t, dt, k3))
	out := make([]float64, len(t))
	for i := range out {
		out[i] = t[i] + dt/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
	return out
}

func addScaled(base []float64, s float64, v []float64) []float64 {
	out := make([]float64, len(base))
	for i := range out {
		out[i] = base[i] + s*v[i]
	}
	return out
}
