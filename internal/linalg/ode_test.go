package linalg

import (
	"math"
	"testing"
)

// A single RC node: C·dT/dt = P − G·T has the closed form
// T(t) = P/G + (T0 − P/G)·exp(−G·t/C).
func TestBackwardEulerSingleNodeConvergesToAnalytic(t *testing.T) {
	g := NewMatrixFrom(1, 1, []float64{2.0}) // G = 2 W/K
	c := []float64{4.0}                      // C = 4 J/K
	p := []float64{10.0}                     // P = 10 W
	dt := 0.001
	st, err := NewBackwardEulerStepper(g, c, dt)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0}
	steps := 2000
	for i := 0; i < steps; i++ {
		state, err = st.Step(state, p)
		if err != nil {
			t.Fatal(err)
		}
	}
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
	st, err := NewBackwardEulerStepper(g, c, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0, 0}
	for i := 0; i < 5000; i++ {
		state, err = st.Step(state, p)
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := luSolve(g, p)
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
	st, err := NewBackwardEulerStepper(g, c, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{100, -100}
	for i := 0; i < 50; i++ {
		state, err = st.Step(state, p)
		if err != nil {
			t.Fatal(err)
		}
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
	st, err := NewBackwardEulerStepper(g, c, dt)
	if err != nil {
		t.Fatal(err)
	}
	be := []float64{0, 0}
	rk := []float64{0, 0}
	for i := 0; i < 5000; i++ {
		be, err = st.Step(be, p)
		if err != nil {
			t.Fatal(err)
		}
		rk = rk4Step(g, c, rk, p, dt)
	}
	if !vecAlmostEq(be, rk, 1e-3) {
		t.Errorf("backward Euler %v vs RK4 %v", be, rk)
	}
}

func TestBackwardEulerStepperValidation(t *testing.T) {
	g := Identity(2)
	c := []float64{1, 1}
	cases := []struct {
		name string
		f    func() error
	}{
		{"non-square", func() error {
			_, err := NewBackwardEulerStepper(NewMatrix(2, 3), c, 0.1)
			return err
		}},
		{"cap length", func() error {
			_, err := NewBackwardEulerStepper(g, []float64{1}, 0.1)
			return err
		}},
		{"zero dt", func() error {
			_, err := NewBackwardEulerStepper(g, c, 0)
			return err
		}},
		{"negative capacitance", func() error {
			_, err := NewBackwardEulerStepper(g, []float64{1, -1}, 0.1)
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
	st, err := NewBackwardEulerStepper(g, c, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dt() != 0.1 {
		t.Errorf("Dt = %v", st.Dt())
	}
	if _, err := st.Step([]float64{1}, []float64{1, 1}); err == nil {
		t.Error("Step with short state should error")
	}
}

func TestStepIntoMatchesStepAndDoesNotAllocate(t *testing.T) {
	g := NewMatrixFrom(2, 2, []float64{2, -1, -1, 2})
	c := []float64{1, 2}
	s, err := NewBackwardEulerStepper(g, c, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{1, 3}
	p := []float64{4, 0}
	want, err := s.Step(state, p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 2)
	if err := s.StepInto(got, state, p); err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(got, want, 0) {
		t.Errorf("StepInto = %v, Step = %v", got, want)
	}
	// dst aliasing the state is the natural in-place stepping form.
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
