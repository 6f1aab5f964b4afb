package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// gridLaplacian assembles the SPD conductance-style matrix of an
// r×c grid with per-edge conductance g, a grounding leak to keep it
// nonsingular, through BOTH the dense Matrix.Add path and a
// SparseBuilder, using an identical Add sequence. Returns (dense, csr).
func gridLaplacian(r, c int, g, leak float64) (*Matrix, *CSR) {
	n := r * c
	m := NewMatrix(n, n)
	b := NewSparseBuilder(n)
	add := func(i, j int, v float64) {
		m.Add(i, j, v)
		b.Add(i, j, v)
	}
	idx := func(x, y int) int { return x*c + y }
	for x := 0; x < r; x++ {
		for y := 0; y < c; y++ {
			i := idx(x, y)
			if y+1 < c {
				j := idx(x, y+1)
				add(i, i, g)
				add(j, j, g)
				add(i, j, -g)
				add(j, i, -g)
			}
			if x+1 < r {
				j := idx(x+1, y)
				add(i, i, g)
				add(j, j, g)
				add(i, j, -g)
				add(j, i, -g)
			}
			add(i, i, leak)
		}
	}
	return m, b.Build()
}

func TestSparseBuilderMatchesDenseAddReplay(t *testing.T) {
	m, a := gridLaplacian(5, 7, 0.37, 0.011)
	if a.N() != m.Rows() {
		t.Fatalf("N = %d, want %d", a.N(), m.Rows())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if a.At(i, j) != m.At(i, j) {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, a.At(i, j), m.At(i, j))
			}
		}
	}
	if a.MaxAbs() != m.MaxAbs() {
		t.Fatalf("MaxAbs = %v, want %v", a.MaxAbs(), m.MaxAbs())
	}
	// Every stored entry is a real nonzero on this assembly, and the
	// grid interior has 5 of them per row — far below n.
	if a.NNZ() >= m.Rows()*m.Cols() {
		t.Fatalf("NNZ = %d, not sparse for n = %d", a.NNZ(), m.Rows())
	}
}

func TestSparseCholeskyNaturalBitwiseMatchesDense(t *testing.T) {
	m, a := gridLaplacian(6, 6, 0.8, 0.05)
	dense, err := factorDenseCholesky(m)
	if err != nil {
		t.Fatalf("factorDenseCholesky: %v", err)
	}
	sparse, err := FactorSparseCholeskyOrdered(a, nil)
	if err != nil {
		t.Fatalf("FactorSparseCholeskyOrdered: %v", err)
	}
	requireSameFactor(t, dense, sparse)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = math.Sin(float64(i) + 1)
	}
	solveBoth(t, dense, sparse, b)
}

func TestSparseCholeskyOrderedSolvesAccurately(t *testing.T) {
	m, a := gridLaplacian(7, 5, 0.33, 0.02)
	perm := MinDegreeOrdering(a)
	f, err := FactorSparseCholeskyOrdered(a, perm)
	if err != nil {
		t.Fatalf("FactorSparseCholeskyOrdered: %v", err)
	}
	natural, err := FactorSparseCholeskyOrdered(a, nil)
	if err != nil {
		t.Fatalf("FactorSparseCholeskyOrdered: %v", err)
	}
	// fill is the factor's stored entries, diagonal included: what the
	// elimination order is trying to minimize.
	fill := func(f *SparseCholesky) int { return len(f.colRows) + f.n }
	if fill(f) > fill(natural) {
		t.Errorf("min-degree fill %d exceeds natural-order fill %d", fill(f), fill(natural))
	}
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*13)%11) - 5
	}
	x := make([]float64, n)
	if err := f.SolveInto(x, b); err != nil {
		t.Fatalf("SolveInto: %v", err)
	}
	dense, err := factorDenseCholesky(m)
	if err != nil {
		t.Fatalf("factorDenseCholesky: %v", err)
	}
	want, err := dense.Solve(b)
	if err != nil {
		t.Fatalf("dense Solve: %v", err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	// Aliased in-place solve must agree with the out-of-place one.
	alias := make([]float64, n)
	copy(alias, b)
	if err := f.SolveInto(alias, alias); err != nil {
		t.Fatalf("aliased SolveInto: %v", err)
	}
	for i := range alias {
		if alias[i] != x[i] {
			t.Fatalf("aliased x[%d] = %v, want %v", i, alias[i], x[i])
		}
	}
}

func TestMinDegreeOrderingDeterministicValidPermutation(t *testing.T) {
	_, a := gridLaplacian(6, 8, 1, 0.1)
	p1 := MinDegreeOrdering(a)
	p2 := MinDegreeOrdering(a)
	if len(p1) != a.N() {
		t.Fatalf("permutation length %d, want %d", len(p1), a.N())
	}
	seen := make([]bool, a.N())
	for i, v := range p1 {
		if v != p2[i] {
			t.Fatalf("ordering not deterministic at %d: %d vs %d", i, v, p2[i])
		}
		if v < 0 || v >= a.N() || seen[v] {
			t.Fatalf("invalid permutation entry %d at %d", v, i)
		}
		seen[v] = true
	}
}

// TestMinDegreeOrderingDefersDenseRow checks the property the thermal
// networks rely on: a node coupled to everything (the heat sink) is
// eliminated last, so its dense row causes no fill.
func TestMinDegreeOrderingDefersDenseRow(t *testing.T) {
	n := 10
	b := NewSparseBuilder(n)
	sink := 0
	for i := 1; i < n; i++ {
		b.Add(i, i, 2)
		b.Add(sink, sink, 1)
		b.Add(i, sink, -1)
		b.Add(sink, i, -1)
		if i+1 < n {
			b.Add(i, i+1, -0.5)
			b.Add(i+1, i, -0.5)
		}
	}
	perm := MinDegreeOrdering(b.Build())
	pos := -1
	for i, v := range perm {
		if v == sink {
			pos = i
		}
	}
	// Elimination shrinks the survivors' degrees too, so ties can pull
	// the sink in a little early — but it must land in the final clique.
	if pos < n-3 {
		t.Fatalf("dense sink row eliminated at position %d of %d, want near last (perm = %v)", pos, n, perm)
	}
}

// TestCholeskyNearSingular is the satellite regression test: both the
// dense and sparse Cholesky factorizations must report ErrSingular on
// a conductance network that is singular to working precision (a
// floating island with only a vanishing leak to ground), instead of
// producing a NaN/garbage factor.
func TestCholeskyNearSingular(t *testing.T) {
	n := 4
	g := 1.0
	leak := 1e-16 // far below cholPivotRelTol * MaxAbs
	m := NewMatrix(n, n)
	b := NewSparseBuilder(n)
	add := func(i, j int, v float64) {
		m.Add(i, j, v)
		b.Add(i, j, v)
	}
	for i := 0; i+1 < n; i++ {
		add(i, i, g)
		add(i+1, i+1, g)
		add(i, i+1, -g)
		add(i+1, i, -g)
	}
	for i := 0; i < n; i++ {
		add(i, i, leak)
	}
	if _, err := factorDenseCholesky(m); !errors.Is(err, ErrSingular) {
		t.Fatalf("dense err = %v, want ErrSingular", err)
	}
	if _, err := FactorSparseCholeskyOrdered(b.Build(), nil); !errors.Is(err, ErrSingular) {
		t.Fatalf("sparse err = %v, want ErrSingular", err)
	}
	// A healthy leak still factors fine on the identical topology.
	m2, a2 := gridLaplacian(2, 2, g, 0.01)
	if _, err := factorDenseCholesky(m2); err != nil {
		t.Fatalf("dense healthy: %v", err)
	}
	if _, err := FactorSparseCholeskyOrdered(a2, nil); err != nil {
		t.Fatalf("sparse healthy: %v", err)
	}
}

func TestSparseCholeskyRejectsAsymmetric(t *testing.T) {
	type entry struct {
		i, j int
		v    float64
	}
	cases := []struct {
		name    string
		entries []entry
	}{
		// No (1,0) entry: structurally asymmetric.
		{"upper entry without mirror", []entry{{0, 1, -1}}},
		// No (0,1) entry.
		{"lower entry without mirror", []entry{{1, 0, -1}}},
		{"mirrors differ", []entry{{0, 1, -1}, {1, 0, -0.5}}},
		// (2,0) finds its mirror only past the unmirrored (0,1).
		{"upper entry passed over", []entry{{0, 1, -1}, {0, 2, -1}, {2, 0, -1}}},
		// (1,2) is the last entry of its row and nothing reaches it.
		{"trailing upper entry", []entry{{0, 1, -1}, {1, 0, -1}, {1, 2, -1}}},
		{"lower entry in the last row", []entry{{2, 1, -1}}},
	}
	for _, c := range cases {
		b := NewSparseBuilder(3)
		for i := 0; i < 3; i++ {
			b.Add(i, i, 4)
		}
		for _, e := range c.entries {
			b.Add(e.i, e.j, e.v)
		}
		if _, err := FactorSparseCholeskyOrdered(b.Build(), nil); !errors.Is(err, ErrNotSPD) {
			t.Errorf("%s: err = %v, want ErrNotSPD", c.name, err)
		}
	}
}

func TestSparseSolveIntoAllocFree(t *testing.T) {
	_, a := gridLaplacian(8, 8, 0.5, 0.02)
	perm := MinDegreeOrdering(a)
	f, err := FactorSparseCholeskyOrdered(a, perm)
	if err != nil {
		t.Fatalf("factor: %v", err)
	}
	n := a.N()
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 3)
	}
	// Warm the scratch freelists once.
	if err := f.SolveInto(x, b); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := f.SolveInto(x, b); err != nil {
			t.Fatalf("SolveInto: %v", err)
		}
	}); n != 0 {
		t.Fatalf("SparseCholesky.SolveInto allocates %v per run after warm-up", n)
	}
}

// Build must sum duplicate coordinates in insertion order whatever the
// order the rows and columns arrive in: random triplets with repeated
// coordinates and magnitudes far apart (so the summation order shows
// in the last bits), shuffled, with empty rows, and with one row
// holding every entry, all match a sequential dense Add replay bit for
// bit.
func TestSparseBuilderDuplicateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(33)-16)) }
	cases := []struct {
		name    string
		n, adds int
		row     func() int
	}{
		{"scattered", 9, 400, func() int { return rng.Intn(9) }},
		{"empty rows", 12, 300, func() int { return 3 * rng.Intn(4) }},
		{"one row", 6, 300, func() int { return 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMatrix(tc.n, tc.n)
			b := NewSparseBuilder(tc.n)
			type triplet struct {
				i, j int
				v    float64
			}
			ts := make([]triplet, tc.adds)
			for k := range ts {
				ts[k] = triplet{tc.row(), rng.Intn(tc.n), value()}
			}
			rng.Shuffle(len(ts), func(x, y int) { ts[x], ts[y] = ts[y], ts[x] })
			for _, e := range ts {
				m.Add(e.i, e.j, e.v)
				b.Add(e.i, e.j, e.v)
			}
			a := b.Build()
			for i := 0; i < tc.n; i++ {
				cols := a.colIdx[a.rowPtr[i]:a.rowPtr[i+1]]
				for k := 1; k < len(cols); k++ {
					if cols[k] <= cols[k-1] {
						t.Fatalf("row %d columns %v not strictly increasing", i, cols)
					}
				}
				for j := 0; j < tc.n; j++ {
					if got, want := a.At(i, j), m.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("[%d,%d] = %v, dense Add replay has %v", i, j, got, want)
					}
				}
			}
		})
	}
}
