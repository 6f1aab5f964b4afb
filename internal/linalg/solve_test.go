package linalg

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// luSolve factors a and solves a·x = b once: the dense reference the
// other solvers are checked against.
func luSolve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

func TestLUSolveKnown(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  →  x = 1, y = 3
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 3})
	x, err := luSolve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{1, 3}, 1e-12) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a := NewMatrixFrom(2, 2, []float64{0, 1, 1, 0})
	x, err := luSolve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{3, 2}, 1e-12) {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := luSolve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewMatrix(2, 3)); err == nil {
		t.Error("FactorLU on non-square matrix should error")
	}
}

func TestLURHSLength(t *testing.T) {
	f, err := FactorLU(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Error("Solve with wrong rhs length should error")
	}
}

func TestLUMultipleRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		want := make([]float64, 6)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(got, want, 1e-8) {
			t.Fatalf("rhs %d: got %v, want %v", k, got, want)
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{4, 2, 2, 3})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve([]float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=10, 2x+3y=9 → x=1.5, y=2
	if !vecAlmostEq(x, []float64{1.5, 2}, 1e-12) {
		t.Errorf("x = %v, want [1.5 2]", x)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	asym := NewMatrixFrom(2, 2, []float64{1, 2, 0, 1})
	if _, err := FactorCholesky(asym); !errors.Is(err, ErrNotSPD) {
		t.Errorf("asymmetric: err = %v, want ErrNotSPD", err)
	}
	indef := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := FactorCholesky(indef); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite: err = %v, want ErrNotSPD", err)
	}
	if _, err := FactorCholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square should error")
	}
}

func TestCholeskyRHSLength(t *testing.T) {
	c, err := FactorCholesky(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve([]float64{1}); err == nil {
		t.Error("Solve with wrong rhs length should error")
	}
}

// Property: LU solves random SPD systems to high accuracy.
func TestLURandomSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 10
		}
		b := a.MulVec(want)
		got, err := luSolve(a, b)
		if err != nil {
			return false
		}
		return vecAlmostEq(got, want, 1e-6*(1+NormInf(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Cholesky and LU agree on random SPD systems.
func TestCholeskyMatchesLUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		c, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		xc, err1 := c.Solve(b)
		xl, err2 := luSolve(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return vecAlmostEq(xc, xl, 1e-7*(1+NormInf(xl)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLUNearSingular(t *testing.T) {
	// Rows differ by ~1e-14 of the matrix scale: an exact-zero pivot
	// test would accept this and amplify rounding noise into a garbage
	// solution; the relative threshold must flag it.
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4 + 1e-14})
	if _, err := FactorLU(a); !errors.Is(err, ErrSingular) {
		t.Errorf("near-singular err = %v, want ErrSingular", err)
	}
}

func TestLUTinyButWellConditioned(t *testing.T) {
	// The singularity threshold is relative to the matrix's own scale,
	// so a tiny well-conditioned matrix must still factor.
	a := NewMatrixFrom(2, 2, []float64{1e-20, 0, 0, 2e-20})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatalf("tiny diagonal matrix rejected: %v", err)
	}
	x, err := f.Solve([]float64{1e-20, 4e-20})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{1, 2}, 1e-12) {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

func TestLUSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 6)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 6)
	if err := f.SolveInto(got, b); err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(got, want, 0) {
		t.Errorf("SolveInto = %v, Solve = %v", got, want)
	}
	// In-place: x aliasing b is allowed.
	alias := append([]float64(nil), b...)
	if err := f.SolveInto(alias, alias); err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(alias, want, 0) {
		t.Errorf("aliased SolveInto = %v, want %v", alias, want)
	}
	if err := f.SolveInto(make([]float64, 5), b); err == nil {
		t.Error("short dst accepted")
	}
	if err := f.SolveInto(got, b[:3]); err == nil {
		t.Error("short rhs accepted")
	}
}

func TestCholeskySolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 6)
	if err := c.SolveInto(got, b); err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(got, want, 0) {
		t.Errorf("SolveInto = %v, Solve = %v", got, want)
	}
	alias := append([]float64(nil), b...)
	if err := c.SolveInto(alias, alias); err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(alias, want, 0) {
		t.Errorf("aliased SolveInto = %v, want %v", alias, want)
	}
	if err := c.SolveInto(make([]float64, 5), b); err == nil {
		t.Error("short dst accepted")
	}
}

func TestSolveIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 8)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 8)
	for i := range b {
		b[i] = 1 + float64(i)
	}
	x := make([]float64, 8)
	if n := testing.AllocsPerRun(100, func() {
		if err := c.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Cholesky.SolveInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := f.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("LU.SolveInto allocates %v per run", n)
	}
}
