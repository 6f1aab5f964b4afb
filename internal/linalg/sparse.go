package linalg

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row matrix. It is the sparse counterpart
// of Matrix for the thermal conductance networks: symmetric, diagonally
// dominant, and — away from the heat-sink row — very sparse (a grid
// node touches at most four lateral neighbors plus one vertical one).
// CSR is immutable after construction; build one with a SparseBuilder.
type CSR struct {
	n      int
	rowPtr []int // len n+1; row i occupies colIdx/vals[rowPtr[i]:rowPtr[i+1]]
	colIdx []int // column indices, strictly increasing within a row
	vals   []float64
}

// N returns the matrix dimension (CSR matrices here are always square).
func (a *CSR) N() int { return a.n }

// NNZ returns the number of stored (structurally nonzero) entries.
func (a *CSR) NNZ() int { return len(a.vals) }

// At returns the element at row i, column j (0 when not stored).
// It is O(log row-length); hot paths should iterate rows directly.
func (a *CSR) At(i, j int) float64 {
	if k := a.index(i, j); k >= 0 {
		return a.vals[k]
	}
	return 0
}

// index returns the position of entry (i, j) in vals, or -1 when it is
// not stored.
func (a *CSR) index(i, j int) int {
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	k := lo + sort.SearchInts(a.colIdx[lo:hi], j)
	if k < hi && a.colIdx[k] == j {
		return k
	}
	return -1
}

// MaxAbs returns the largest absolute stored value.
func (a *CSR) MaxAbs() float64 {
	var mx float64
	for _, v := range a.vals {
		if x := math.Abs(v); x > mx {
			mx = x
		}
	}
	return mx
}

// MulVecInto computes y = a·x without allocating. x and y must not
// alias.
func (a *CSR) MulVecInto(y, x []float64) {
	if len(x) != a.n || len(y) != a.n {
		panic(fmt.Sprintf("linalg: CSR.MulVecInto dimension mismatch: n=%d len(x)=%d len(y)=%d", a.n, len(x), len(y)))
	}
	for i := 0; i < a.n; i++ {
		var s float64
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			s += a.vals[k] * x[a.colIdx[k]]
		}
		y[i] = s
	}
}

// Dense expands the CSR matrix to a dense Matrix. Because the builder
// accumulates duplicate coordinates in insertion order, the dense image
// is bitwise identical to assembling the same Add sequence directly
// into a Matrix — the property the hotspot package relies on to keep
// the dense solver path byte-for-byte unchanged while assembling
// through the sparse builder.
func (a *CSR) Dense() *Matrix {
	m := NewMatrix(a.n, a.n)
	for i := 0; i < a.n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			m.Set(i, a.colIdx[k], a.vals[k])
		}
	}
	return m
}

// SparseBuilder accumulates (row, col, value) triplets and compresses
// them into a CSR matrix. Duplicate coordinates are summed in insertion
// order, matching the semantics of repeated Matrix.Add calls exactly
// (float addition is not associative; order is part of the determinism
// contract).
type SparseBuilder struct {
	n    int
	rows []int
	cols []int
	vals []float64
}

// NewSparseBuilder returns a builder for an n×n matrix. It panics if n
// is not positive; dimensions are programmer-controlled, never input.
func NewSparseBuilder(n int) *SparseBuilder {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid sparse dimension %d", n))
	}
	return &SparseBuilder{n: n}
}

// Add records a[i,j] += v.
func (b *SparseBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("linalg: SparseBuilder.Add index (%d,%d) out of range for n=%d", i, j, b.n))
	}
	b.rows = append(b.rows, i)
	b.cols = append(b.cols, j)
	b.vals = append(b.vals, v)
}

// Build compresses the accumulated triplets into a CSR matrix. The
// builder may be reused afterwards (further Adds extend the same
// triplet log), but callers in this repository build exactly once.
func (b *SparseBuilder) Build() *CSR {
	// Sort an index permutation by (row, col), stably: ties keep
	// insertion order, so summing duplicates in permuted order equals
	// summing them in insertion order per coordinate.
	perm := make([]int, len(b.rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		px, py := perm[x], perm[y]
		if b.rows[px] != b.rows[py] {
			return b.rows[px] < b.rows[py]
		}
		return b.cols[px] < b.cols[py]
	})
	a := &CSR{n: b.n, rowPtr: make([]int, b.n+1)}
	lastI, lastJ := -1, -1
	for _, p := range perm {
		i, j, v := b.rows[p], b.cols[p], b.vals[p]
		if i == lastI && j == lastJ {
			a.vals[len(a.vals)-1] += v
			continue
		}
		lastI, lastJ = i, j
		a.rowPtr[i+1]++
		a.colIdx = append(a.colIdx, j)
		a.vals = append(a.vals, v)
	}
	for i := 0; i < b.n; i++ {
		a.rowPtr[i+1] += a.rowPtr[i]
	}
	return a
}
