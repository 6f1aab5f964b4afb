package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0, 3) should panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestNewMatrixFromPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrixFrom with wrong length should panic")
		}
	}()
	NewMatrixFrom(2, 2, []float64{1, 2, 3})
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Errorf("Set/At = %v, want 9", m.At(0, 1))
	}
	m.Add(0, 1, 1)
	if m.At(0, 1) != 10 {
		t.Errorf("Add = %v, want 10", m.At(0, 1))
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	x := []float64{1, 2, 3}
	if got := id.MulVec(x); !vecAlmostEq(got, x, 0) {
		t.Errorf("I·x = %v, want %v", got, x)
	}
}

func TestClone(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone must not alias the original")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec([]float64{1, 1, 1})
	if !vecAlmostEq(got, []float64{6, 15}, 1e-12) {
		t.Errorf("MulVec = %v, want [6 15]", got)
	}
}

func TestMulVecDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulVec with wrong length should panic")
		}
	}()
	NewMatrix(2, 3).MulVec([]float64{1, 2})
}

func TestIsSymmetric(t *testing.T) {
	sym := NewMatrixFrom(2, 2, []float64{2, -1, -1, 2})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := NewMatrixFrom(2, 2, []float64{2, -1, 0, 2})
	if asym.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(0) {
		t.Error("non-square matrix cannot be symmetric")
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	if Mean(a) != 2 {
		t.Errorf("Mean = %v, want 2", Mean(a))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if Max(a) != 3 || Min(a) != 1 {
		t.Error("Max/Min wrong")
	}
}

func TestMaxMinPanicOnEmpty(t *testing.T) {
	for _, f := range []func([]float64) float64{Max, Min} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Max/Min of empty vector should panic")
				}
			}()
			f(nil)
		}()
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// randomSPD returns a random symmetric positive-definite matrix
// A = BᵀB + n·I (shared by the solver tests).
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				a.Add(i, j, b.At(k, i)*b.At(k, j))
			}
		}
		a.Add(i, i, float64(n))
	}
	return a
}
