package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The Cholesky contract: every test here runs the dense oracle and the
// production natural-order FactorSparseCholesky on the same matrix and
// requires the same factor, the same solution bits or the same error.

// factorBoth factors a with the dense oracle and with
// FactorSparseCholesky, failing unless both return the same error.
func factorBoth(t testing.TB, a *Matrix) (*denseCholesky, *SparseCholesky, error) {
	t.Helper()
	d, derr := factorDenseCholesky(a)
	s, serr := FactorSparseCholesky(csrOf(a))
	if derr != serr {
		t.Fatalf("dense err = %v, sparse err = %v", derr, serr)
	}
	return d, s, derr
}

// requireSameFactor fails unless s stores exactly the oracle's factor
// in both layouts: the same diagonal bits, the same bits for every
// stored strictly-lower entry of L, and an exact zero in the oracle
// wherever s stores nothing.
func requireSameFactor(t testing.TB, d *denseCholesky, s *SparseCholesky) {
	t.Helper()
	if len(s.colRows) != s.rowPtr[s.n] {
		t.Fatalf("%d entries by column, %d by row", len(s.colRows), s.rowPtr[s.n])
	}
	for j := 0; j < s.n; j++ {
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			i := int(s.colRows[k])
			if i <= j || math.Float64bits(s.colVals[k]) != math.Float64bits(d.l.At(i, j)) {
				t.Fatalf("column %d stores L[%d,%d] = %v, dense %v", j, i, j, s.colVals[k], d.l.At(i, j))
			}
		}
	}
	for i := 0; i < s.n; i++ {
		if math.Float64bits(s.diag[i]) != math.Float64bits(d.l.At(i, i)) {
			t.Fatalf("diag[%d] = %v, dense %v", i, s.diag[i], d.l.At(i, i))
		}
		k := s.rowPtr[i]
		for j := 0; j < i; j++ {
			want := d.l.At(i, j)
			if k < s.rowPtr[i+1] && int(s.rowCols[k]) == j {
				if math.Float64bits(s.rowVals[k]) != math.Float64bits(want) {
					t.Fatalf("L[%d,%d] = %v, dense %v", i, j, s.rowVals[k], want)
				}
				k++
			} else if want != 0 {
				t.Fatalf("L[%d,%d] not stored, dense %v", i, j, want)
			}
		}
		if k != s.rowPtr[i+1] {
			t.Fatalf("row %d stores entries on or above the diagonal", i)
		}
	}
}

// solveBoth solves A·x = b with both factors, fails unless the two
// solutions agree bit for bit, and returns the solution.
func solveBoth(t testing.TB, d *denseCholesky, s *SparseCholesky, b []float64) []float64 {
	t.Helper()
	want, err := d.Solve(b)
	if err != nil {
		t.Fatalf("dense Solve: %v", err)
	}
	got := make([]float64, len(b))
	if err := s.SolveInto(got, b); err != nil {
		t.Fatalf("sparse SolveInto: %v", err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v, dense %v (natural order must be bitwise identical)", i, got[i], want[i])
		}
	}
	return got
}

func TestCholeskyKnown(t *testing.T) {
	d, s, err := factorBoth(t, NewMatrixFrom(2, 2, []float64{4, 2, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	requireSameFactor(t, d, s)
	// L = [2 0; 1 √2].
	if s.diag[0] != 2 || s.diag[1] != math.Sqrt(2) || s.rowVals[0] != 1 {
		t.Errorf("L = diag %v, L[1,0] %v; want [2 √2], 1", s.diag, s.rowVals[0])
	}
	// 4x+2y=10, 2x+3y=9 → x=1.5, y=2
	if x := solveBoth(t, d, s, []float64{10, 9}); !vecAlmostEq(x, []float64{1.5, 2}, 1e-12) {
		t.Errorf("x = %v, want [1.5 2]", x)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	asym := NewMatrixFrom(2, 2, []float64{1, 2, 0, 1})
	if _, _, err := factorBoth(t, asym); !errors.Is(err, ErrNotSPD) {
		t.Errorf("asymmetric: err = %v, want ErrNotSPD", err)
	}
	indef := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, _, err := factorBoth(t, indef); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite: err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyRHSLength(t *testing.T) {
	d, s, err := factorBoth(t, Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		x, b  []float64
	}{
		{"short rhs", make([]float64, 3), []float64{1}},
		{"short dst", make([]float64, 2), []float64{1, 2, 3}},
	} {
		if d.SolveInto(tc.x, tc.b) == nil {
			t.Errorf("dense SolveInto accepted a %s", tc.label)
		}
		if s.SolveInto(tc.x, tc.b) == nil {
			t.Errorf("sparse SolveInto accepted a %s", tc.label)
		}
	}
}

// Property: both factorizations solve random SPD systems to high
// accuracy, bit for bit alike.
func TestCholeskyRandomSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 10
		}
		d, s, err := factorBoth(t, a)
		if err != nil {
			return false
		}
		requireSameFactor(t, d, s)
		got := solveBoth(t, d, s, a.MulVec(want))
		return vecAlmostEq(got, want, 1e-6*(1+NormInf(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyTinyButWellConditioned(t *testing.T) {
	// The singularity threshold is relative to the matrix's own scale,
	// so a tiny well-conditioned matrix must still factor.
	d, s, err := factorBoth(t, NewMatrixFrom(2, 2, []float64{1e-20, 0, 0, 2e-20}))
	if err != nil {
		t.Fatalf("tiny diagonal matrix rejected: %v", err)
	}
	if x := solveBoth(t, d, s, []float64{1e-20, 4e-20}); !vecAlmostEq(x, []float64{1, 2}, 1e-12) {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

// SolveInto with x aliasing b gives the same bits as the out-of-place
// solve, for both factors.
func TestCholeskySolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, s, err := factorBoth(t, randomSPD(rng, 6))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := solveBoth(t, d, s, b)
	for name, solve := range map[string]func(x, b []float64) error{"dense": d.SolveInto, "sparse": s.SolveInto} {
		alias := append([]float64(nil), b...)
		if err := solve(alias, alias); err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(alias, want, 0) {
			t.Errorf("%s aliased SolveInto = %v, want %v", name, alias, want)
		}
	}
}

func TestSolveIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, s, err := factorBoth(t, randomSPD(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 8)
	for i := range b {
		b[i] = 1 + float64(i)
	}
	x := make([]float64, 8)
	for name, solve := range map[string]func(x, b []float64) error{"dense": d.SolveInto, "sparse": s.SolveInto} {
		if n := testing.AllocsPerRun(100, func() {
			if err := solve(x, b); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s SolveInto allocates %v per run", name, n)
		}
	}
}
