package linalg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// CSR is a compressed-sparse-row matrix. It holds the thermal
// conductance networks: symmetric, diagonally dominant, and — away
// from the heat-sink row — very sparse (a grid node touches at most
// four lateral neighbors plus one vertical one).
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

// SparseBuilder accumulates (row, col, value) triplets and compresses
// them into a CSR matrix. Duplicate coordinates are summed in insertion
// order, exactly as accumulating the same Add sequence into a dense
// array would (float addition is not associative; order is part of the
// determinism contract). A builder keeps its triplet log and Build's
// scratch across Reset, so one builder can assemble many matrices
// without regrowing them; every CSR it returns owns its own arrays.
type SparseBuilder struct {
	n    int
	rows []int
	cols []int
	vals []float64

	// Build's scratch: row cursors and the (row, col)-ordered
	// permutation of the triplet log.
	next []int
	perm []int
}

// NewSparseBuilder returns a builder for an n×n matrix. It panics if n
// is not positive; dimensions are programmer-controlled, never input.
func NewSparseBuilder(n int) *SparseBuilder {
	b := &SparseBuilder{}
	b.Reset(n)
	return b
}

// Reset empties the triplet log and makes b a builder for an n×n
// matrix, keeping its buffers for reuse. The zero SparseBuilder is
// ready after Reset. It panics if n is not positive.
func (b *SparseBuilder) Reset(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid sparse dimension %d", n))
	}
	b.n = n
	b.rows, b.cols, b.vals = b.rows[:0], b.cols[:0], b.vals[:0]
}

// Grow makes room for k more triplets, so the next k Adds do not
// reallocate the log.
func (b *SparseBuilder) Grow(k int) {
	b.rows = slices.Grow(b.rows, k)
	b.cols = slices.Grow(b.cols, k)
	b.vals = slices.Grow(b.vals, k)
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

// Build compresses the accumulated triplets into a CSR matrix. It does
// not consume the log: further Adds extend it, and Reset starts a new
// matrix.
func (b *SparseBuilder) Build() *CSR { return b.build(nil) }

// BuildInto is Build into a caller-owned matrix: it overwrites a,
// reusing its arrays when they are large enough, so one builder and
// one CSR can assemble matrix after matrix without allocating once
// both have grown. No reader may hold a while it is rebuilt.
func (b *SparseBuilder) BuildInto(a *CSR) { b.build(a) }

// build compresses the triplets into a, or into a new CSR when a is
// nil, and returns it.
func (b *SparseBuilder) build(a *CSR) *CSR {
	// Order an index permutation by (row, col), stably: ties keep
	// insertion order, so summing duplicates in permuted order equals
	// summing them in insertion order per coordinate. A counting sort
	// by row keeps insertion order within each row; a stable sort by
	// column then orders each row.
	b.next = resize(b.next, b.n+1)
	next := b.next
	clear(next)
	for _, i := range b.rows {
		next[i+1]++
	}
	for i := 0; i < b.n; i++ {
		next[i+1] += next[i]
	}
	b.perm = resize(b.perm, len(b.rows))
	perm := b.perm
	for p, i := range b.rows {
		perm[next[i]] = p
		next[i]++
	}
	// next[i] is now the end of row i, so row i is perm[next[i-1]:next[i]].
	cols := b.cols
	byCol := func(p, q int) int { return cmp.Compare(cols[p], cols[q]) }
	lo, nnz := 0, 0
	for _, hi := range next[:b.n] {
		row := perm[lo:hi]
		if len(row) > 1 {
			slices.SortStableFunc(row, byCol)
		}
		for x := range row {
			if x == 0 || cols[row[x]] != cols[row[x-1]] {
				nnz++
			}
		}
		lo = hi
	}
	if a == nil {
		a = new(CSR)
	}
	a.n = b.n
	a.rowPtr = resize(a.rowPtr, b.n+1)
	clear(a.rowPtr)
	a.colIdx = resize(a.colIdx, nnz)[:0]
	a.vals = resize(a.vals, nnz)[:0]
	lastI, lastJ := -1, -1
	for _, p := range perm {
		i, j, v := b.rows[p], cols[p], b.vals[p]
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

// resize returns s resliced to length n when its capacity allows, and
// a new slice of exactly n elements otherwise. The contents are
// unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
