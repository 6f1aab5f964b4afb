package linalg

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// The factor sizes every column of L in a symbolic pass before the
// numeric one, so its allocation count is one constant whatever the
// dimension, the fill or the elimination order.
func TestFactorSparseCholeskyAllocsConstant(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		want, wantN := -1.0, 0
		for _, side := range []int{4, 8, 16} {
			_, a := gridLaplacian(side, side, 0.5, 0.02)
			var perm []int
			if ordered {
				perm = MinDegreeOrdering(a)
			}
			got := testing.AllocsPerRun(5, func() {
				if _, err := FactorSparseCholeskyOrdered(a, perm); err != nil {
					t.Fatal(err)
				}
			})
			if want < 0 {
				want, wantN = got, a.N()
			}
			if got != want {
				t.Errorf("ordered=%v: %v allocations per factor at n=%d, %v at n=%d", ordered, got, a.N(), want, wantN)
			}
		}
	}
}

// requireSameSparseFactor fails unless got stores bitwise the factor
// want stores, in both layouts.
func requireSameSparseFactor(t testing.TB, got, want *SparseCholesky) {
	t.Helper()
	if got.n != want.n || !slices.Equal(got.perm, want.perm) {
		t.Fatalf("n %d/%d, perm %v/%v", got.n, want.n, got.perm, want.perm)
	}
	same := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: %d entries, want %d", name, len(g), len(w))
		}
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Fatalf("%s[%d] = %v, fresh factor %v", name, k, g[k], w[k])
			}
		}
	}
	same("diag", got.diag, want.diag)
	same("colVals", got.colVals, want.colVals)
	same("rowVals", got.rowVals, want.rowVals)
	if !slices.Equal(got.colPtr, want.colPtr) || !slices.Equal(got.rowPtr, want.rowPtr) ||
		!slices.Equal(got.colRows, want.colRows) || !slices.Equal(got.rowCols, want.rowCols) {
		t.Fatal("factor pattern differs from the fresh factor's")
	}
}

// Refactor through one SparseCholesky, from large to small to large,
// natural and min-degree, with failures in between, stores the bits a
// fresh factor stores and solves to the same bits: no residue of an
// earlier factor, a failed one included, leaks into the next.
func TestSparseCholeskyRefactorMatchesFresh(t *testing.T) {
	var f SparseCholesky
	for _, side := range []int{7, 2, 1, 5, 8, 3} {
		for _, ordered := range []bool{true, false} {
			_, a := gridLaplacian(side, side+1, 0.5, 0.02)
			var perm []int
			if ordered {
				perm = MinDegreeOrdering(a)
			}
			// A dirty failure first: a grid with no leak is singular,
			// and its elimination stops at the last pivot.
			_, singular := gridLaplacian(side, side+1, 0.5, 0)
			if err := f.Refactor(singular, perm); !errors.Is(err, ErrSingular) {
				t.Fatalf("side %d: Refactor(singular) = %v, want ErrSingular", side, err)
			}
			want, err := FactorSparseCholeskyOrdered(a, perm)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Refactor(a, perm); err != nil {
				t.Fatal(err)
			}
			requireSameSparseFactor(t, &f, want)
			rhs := make([]float64, a.N())
			for i := range rhs {
				rhs[i] = math.Cos(float64(3*i + side))
			}
			x, y := make([]float64, a.N()), make([]float64, a.N())
			if err := f.SolveInto(x, rhs); err != nil {
				t.Fatal(err)
			}
			if err := want.SolveInto(y, rhs); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					t.Fatalf("side %d ordered=%v: x[%d] = %v, fresh factor %v", side, ordered, i, x[i], y[i])
				}
			}
		}
	}
	if err := f.Refactor(NewSparseBuilder(2).Build(), []int{0, 0}); err == nil {
		t.Fatal("Refactor accepted a repeated permutation entry")
	}
}

// A warm Refactor of a same-sized matrix, and a natural-order solve
// on it, allocate nothing.
func TestSparseCholeskyRefactorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	_, a := gridLaplacian(5, 6, 0.5, 0.02)
	var f SparseCholesky
	if err := f.Refactor(a, nil); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N())
	x[0] = 1
	got := testing.AllocsPerRun(20, func() {
		if err := f.Refactor(a, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveInto(x, x); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("warm Refactor+SolveInto makes %v allocations per run, want 0", got)
	}
}

// An exact cancellation drops an entry the symbolic pattern predicted;
// the factor closes the gap and still matches the dense oracle.
func TestSparseCholeskyExactCancellation(t *testing.T) {
	// Eliminating node 0 of the star 0–1, 0–2 subtracts exactly the
	// positive 1–2 coupling: L[2,1] is in the pattern but is 0.
	d, s, err := factorBoth(t, NewMatrixFrom(3, 3, []float64{
		4, -2, -2,
		-2, 3, 1,
		-2, 1, 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	requireSameFactor(t, d, s)
	if len(s.colRows) != 2 || cap(s.colRows) != 3 {
		t.Fatalf("stored %d of %d predicted entries, want 2 of 3", len(s.colRows), cap(s.colRows))
	}
	solveBoth(t, d, s, []float64{1, 2, 3})
}

// fuzzConductance decodes fuzz bytes into a symmetric
// conductance-style matrix, assembled with the same Add sequence into
// the dense oracle's Matrix and a CSR. data[0] sets the dimension, the
// next byte per node its leak to ground (zero, dyadic, decimal, or far
// below cholPivotRelTol), and each following triple an edge: two
// endpoints and a byte picking a dyadic or decimal weight and the sign
// of the coupling. A negative coupling adds g·(eᵤ−eᵥ)(eᵤ−eᵥ)ᵀ, a
// positive one g·(eᵤ+eᵥ)(eᵤ+eᵥ)ᵀ, so the matrix stays positive
// semidefinite, while dyadic weights of both signs make exact
// cancellations (and explicit zeros) reachable. It returns nil for
// empty input.
func fuzzConductance(data []byte) (*Matrix, *CSR) {
	if len(data) == 0 {
		return nil, nil
	}
	n := 1 + int(data[0])%16
	data = data[1:]
	m := NewMatrix(n, n)
	b := NewSparseBuilder(n)
	add := func(i, j int, v float64) {
		m.Add(i, j, v)
		b.Add(i, j, v)
	}
	for i := 0; i < n; i++ {
		var c byte
		if i < len(data) {
			c = data[i]
		}
		var leak float64
		switch k := int(c >> 2); c % 4 {
		case 1:
			leak = math.Ldexp(1, -(k % 8))
		case 2:
			leak = math.Ldexp(1, -60-k%16)
		case 3:
			leak = 0.1 * float64(k+1)
		}
		add(i, i, leak)
	}
	data = data[min(n, len(data)):]
	for ; len(data) >= 3; data = data[3:] {
		u, v, e := int(data[0])%n, int(data[1])%n, data[2]
		if u == v {
			continue
		}
		g := math.Ldexp(1, int(e&7)-3)
		if e&16 != 0 {
			g *= 0.3
		}
		off := -g
		if e&8 != 0 {
			off = g
		}
		add(u, u, g)
		add(v, v, g)
		add(u, v, off)
		add(v, u, off)
	}
	return m, b.Build()
}

// FuzzSparseCholesky checks the natural-order factor against the dense
// oracle bit for bit (or the same sentinel error), and the min-degree
// factor by its residual.
func FuzzSparseCholesky(f *testing.F) {
	// The star of TestSparseCholeskyExactCancellation.
	f.Add([]byte{2, 0, 0, 0, 0, 1, 4, 0, 2, 4, 1, 2, 11})
	// A chain with leaks far below the pivot threshold: singular.
	f.Add([]byte{3, 2, 2, 2, 2, 0, 1, 3, 1, 2, 3, 2, 3, 3})
	// Mixed leaks and weights, with a coupling cancelled to an explicit zero.
	f.Add([]byte{9, 1, 5, 9, 13, 3, 7, 11, 15, 1, 0, 1, 20, 2, 5, 12, 3, 7, 1, 8, 4, 9, 6, 2, 2, 1, 8, 28, 1, 0, 28})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, a := fuzzConductance(data)
		if m == nil {
			return
		}
		d, derr := factorDenseCholesky(m)
		s, serr := FactorSparseCholeskyOrdered(a, nil)
		if derr != serr {
			t.Fatalf("dense err = %v, sparse err = %v", derr, serr)
		}
		if derr != nil {
			return
		}
		requireSameFactor(t, d, s)
		// Refactored over a min-degree factor of the same matrix, the
		// natural-order factor keeps its bits.
		var re SparseCholesky
		_ = re.Refactor(a, MinDegreeOrdering(a))
		if err := re.Refactor(a, nil); err != nil {
			t.Fatalf("Refactor: %v", err)
		}
		requireSameSparseFactor(t, &re, s)
		n := a.N()
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = math.Sin(float64(i) + 1)
		}
		solveBoth(t, d, s, rhs)

		o, err := FactorSparseCholeskyOrdered(a, MinDegreeOrdering(a))
		if errors.Is(err, ErrSingular) {
			// A pivot near the threshold under one order may fall
			// below it under another.
			return
		}
		if err != nil {
			t.Fatalf("min-degree factor: %v", err)
		}
		x := make([]float64, n)
		if err := o.SolveInto(x, rhs); err != nil {
			t.Fatal(err)
		}
		r := m.MulVec(x)
		for i := range r {
			r[i] -= rhs[i]
		}
		if res, scale := normInf(r), a.MaxAbs()*normInf(x)+normInf(rhs); res > 1e-9*scale {
			t.Fatalf("min-degree residual %g exceeds 1e-9 × %g", res, scale)
		}
	})
}
