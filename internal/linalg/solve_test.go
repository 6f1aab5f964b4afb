package linalg

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

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

// Property: Cholesky solves random SPD systems to high accuracy.
func TestCholeskyRandomSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 10
		}
		b := a.MulVec(want)
		c, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		got, err := c.Solve(b)
		if err != nil {
			return false
		}
		return vecAlmostEq(got, want, 1e-6*(1+NormInf(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyTinyButWellConditioned(t *testing.T) {
	// The singularity threshold is relative to the matrix's own scale,
	// so a tiny well-conditioned matrix must still factor, dense and
	// sparse.
	a := NewMatrixFrom(2, 2, []float64{1e-20, 0, 0, 2e-20})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatalf("tiny diagonal matrix rejected: %v", err)
	}
	sc, err := FactorSparseCholesky(csrOf(a))
	if err != nil {
		t.Fatalf("sparse: tiny diagonal matrix rejected: %v", err)
	}
	for _, f := range []SteadySolver{c, sc} {
		x := make([]float64, 2)
		if err := f.SolveInto(x, []float64{1e-20, 4e-20}); err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(x, []float64{1, 2}, 1e-12) {
			t.Errorf("x = %v, want [1 2]", x)
		}
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
}
