package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ErrSingular is returned when a factorization meets an (effectively)
// singular pivot: one below cholPivotRelTol times the matrix's largest
// element.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrNotSPD is returned when the matrix is not symmetric positive
// definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// cholPivotRelTol is the relative singularity threshold of the
// Cholesky factorization: a pivot this far below the matrix's largest
// element means the conductance network is singular to working
// precision (e.g. a block thermally disconnected from the sink), and
// deserves ErrSingular rather than a NaN-laden factor. An exact-zero
// test would let near-singular systems through and amplify rounding
// noise into garbage solutions.
const cholPivotRelTol = 1e-12

// SparseCholesky is the factorization P·A·Pᵀ = L·Lᵀ of a symmetric
// positive-definite sparse matrix, with an optional fill-reducing
// elimination order P. The strictly-lower factor is stored twice — by
// rows (forward substitution) and by columns (backward substitution) —
// trading memory for allocation-free triangular sweeps. Under natural
// order (nil permutation) the accumulation sequence matches the
// textbook dense Cholesky term for term, so factor and solves are
// bitwise identical to a dense factorization (the package tests keep
// one as the oracle); under a fill-reducing order they agree to
// rounding.
type SparseCholesky struct {
	n    int
	perm []int // perm[k] = original index eliminated at step k; nil = natural
	diag []float64

	// Strictly-lower L by rows: row i's entries in increasing column order.
	rowPtr  []int
	rowCols []int32
	rowVals []float64
	// The same entries by columns, in increasing row order.
	colPtr  []int
	colRows []int32
	colVals []float64

	mu   sync.Mutex
	free [][]float64 // scratch freelist for permuted solves

	// Refactor's scratch, kept only by a factor refactored in place:
	// the inverse order and tree work (3n) and the dense row (n).
	iw []int
	w  []float64
}

// FactorSparseCholeskyOrdered factors a under the elimination order
// perm (perm[k] = original index eliminated at step k); nil means
// natural order. It returns ErrNotSPD when a is not symmetric (within
// a loose tolerance) or a pivot is clearly negative, and ErrSingular
// when a pivot falls below cholPivotRelTol times the matrix's max-abs
// element, so a degenerate conductance network fails loudly instead of
// amplifying rounding noise.
func FactorSparseCholeskyOrdered(a *CSR, perm []int) (*SparseCholesky, error) {
	f := new(SparseCholesky)
	if err := f.Refactor(a, perm); err != nil {
		return nil, err
	}
	f.iw, f.w = nil, nil // a factor kept for its solves holds only L
	return f, nil
}

// Refactor is FactorSparseCholeskyOrdered into f: it overwrites f's
// factor with a's, reusing f's arrays and scratch, so a caller that
// factors many matrices through one SparseCholesky stops allocating
// once its arrays have grown. The factor bits are those
// FactorSparseCholeskyOrdered computes, and so are the errors; after
// an error f holds no usable factor until the next Refactor succeeds.
// f keeps perm. No solve may run on f while it is refactored.
func (f *SparseCholesky) Refactor(a *CSR, perm []int) error {
	n := a.n
	f.iw = resize(f.iw, 3*n)
	inv, err := invertPermutation(perm, f.iw[2*n:])
	if err != nil {
		return err
	}
	maxAbs := a.MaxAbs()
	iw := f.iw[:2*n]
	if err := checkCSRSymmetric(a, maxAbs, iw[:n]); err != nil {
		return err
	}
	if n != f.n {
		f.free = nil // permuted-solve scratch is sized for the old n
	}
	f.n, f.perm = n, perm
	f.diag = resize(f.diag, n)
	// colPtr and rowPtr share one array; colPtr keeps its capacity so
	// the next Refactor recovers the whole of it.
	ptrs := resize(f.colPtr, 2*(n+1))
	clear(ptrs)
	f.colPtr, f.rowPtr = ptrs[:n+1], ptrs[n+1:]
	tiny := cholPivotRelTol * maxAbs

	// Symbolic pass: the elimination tree of P·A·Pᵀ sizes every column
	// of L, so the numeric pass fills flat column arrays through
	// per-column cursors instead of growing one slice per column.
	parent := iw[:n]
	eliminationTree(a, perm, inv, parent, iw[n:])
	f.countColumns(a, perm, inv, parent, iw[n:])
	nnz := f.colPtr[n]
	f.colRows = resize(f.colRows, nnz)
	f.colVals = resize(f.colVals, nnz)
	end := parent // parent is spent: end[j] is column j's fill cursor
	copy(end, f.colPtr[:n])

	// Up-looking row factorization in push form. Columns of L grow as
	// rows complete; when row i scans column j it sees exactly the
	// entries L[r,j] with r ≤ i. The dense workspace w holds row i of
	// the partially eliminated matrix; w[j] is final when the scan
	// reaches j because updates to it only flow from columns k < j,
	// all already processed this row. A failed pivot leaves it dirty,
	// hence the clear.
	f.w = resize(f.w, n)
	w := f.w
	clear(w)
	for i := 0; i < n; i++ {
		// Scatter the lower triangle of row i of P·A·Pᵀ into w.
		orig := i
		if perm != nil {
			orig = perm[i]
		}
		for k := a.rowPtr[orig]; k < a.rowPtr[orig+1]; k++ {
			j := a.colIdx[k]
			if inv != nil {
				j = inv[j]
			}
			if j <= i {
				w[j] += a.vals[k]
			}
		}
		for j := 0; j < i; j++ {
			if w[j] == 0 {
				continue
			}
			lij := w[j] / f.diag[j]
			w[j] = 0
			// Appending (i, lij) to column j before the push folds the
			// diagonal update w[i] -= lij² into the same loop as the
			// off-diagonal ones, in the same increasing-k order the
			// dense textbook loop subtracts its inner products.
			e := end[j]
			f.colRows[e] = int32(i)
			f.colVals[e] = lij
			end[j] = e + 1
			cj, vj := f.colRows[f.colPtr[j]:e+1], f.colVals[f.colPtr[j]:e+1]
			for k := range cj {
				w[cj[k]] -= lij * vj[k]
			}
		}
		d := w[i]
		w[i] = 0
		if d <= tiny {
			// A pivot clearly below zero means indefinite; one within
			// rounding noise of zero means singular to working
			// precision (rounding can push it to either side of 0).
			if d <= -tiny {
				return ErrNotSPD
			}
			return ErrSingular
		}
		f.diag[i] = math.Sqrt(d)
	}
	f.compact(end)
	f.transpose(end)
	return nil
}

// eliminationTree computes the elimination tree of the lower triangle
// of P·A·Pᵀ (Liu's algorithm with path compression): parent[j] is the
// first row below j whose factor row has a nonzero in column j, -1 at
// a root. ancestor is scratch of length n.
func eliminationTree(a *CSR, perm, inv, parent, ancestor []int) {
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
		orig := i
		if perm != nil {
			orig = perm[i]
		}
		for k := a.rowPtr[orig]; k < a.rowPtr[orig+1]; k++ {
			j := a.colIdx[k]
			if inv != nil {
				j = inv[j]
			}
			// Climb from j to the root of its current subtree,
			// pointing every visited node at i on the way.
			for j < i && j != -1 {
				next := ancestor[j]
				ancestor[j] = i
				if next == -1 {
					parent[j] = i
				}
				j = next
			}
		}
	}
}

// countColumns fills f.colPtr with the column starts of L's symbolic
// pattern. Row i's pattern is the union of the elimination-tree paths
// from each nonzero A[i,j], j < i, up to i, so walking those paths
// once each (mark stops a walk at a node this row already visited)
// counts every entry exactly once. mark is scratch of length n.
func (f *SparseCholesky) countColumns(a *CSR, perm, inv, parent, mark []int) {
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < f.n; i++ {
		mark[i] = i
		orig := i
		if perm != nil {
			orig = perm[i]
		}
		for k := a.rowPtr[orig]; k < a.rowPtr[orig+1]; k++ {
			j := a.colIdx[k]
			if inv != nil {
				j = inv[j]
			}
			if j > i {
				continue
			}
			for ; mark[j] != i; j = parent[j] {
				f.colPtr[j+1]++
				mark[j] = i
			}
		}
	}
	for j := 0; j < f.n; j++ {
		f.colPtr[j+1] += f.colPtr[j]
	}
}

// compact closes the gaps the symbolic count leaves where an exact
// cancellation (w[j] == 0) dropped a predicted entry: column j holds
// colRows/colVals[colPtr[j]:end[j]] on entry and is shifted down to
// abut column j-1.
func (f *SparseCholesky) compact(end []int) {
	p := 0
	for j := 0; j < f.n; j++ {
		lo, hi := f.colPtr[j], end[j]
		f.colPtr[j] = p
		copy(f.colVals[p:], f.colVals[lo:hi])
		p += copy(f.colRows[p:], f.colRows[lo:hi])
	}
	f.colPtr[f.n] = p
	f.colRows, f.colVals = f.colRows[:p], f.colVals[:p]
}

// transpose fills the by-row layout from the by-column one. next is
// scratch of length n.
func (f *SparseCholesky) transpose(next []int) {
	n := f.n
	for _, r := range f.colRows {
		f.rowPtr[r+1]++
	}
	for i := 0; i < n; i++ {
		f.rowPtr[i+1] += f.rowPtr[i]
	}
	f.rowCols = resize(f.rowCols, len(f.colRows))
	f.rowVals = resize(f.rowVals, len(f.colRows))
	copy(next, f.rowPtr[:n])
	// Iterating columns in increasing j appends to each row in
	// increasing column order — the order forward substitution wants.
	for j := 0; j < n; j++ {
		for k := f.colPtr[j]; k < f.colPtr[j+1]; k++ {
			r := f.colRows[k]
			f.rowCols[next[r]] = int32(j)
			f.rowVals[next[r]] = f.colVals[k]
			next[r]++
		}
	}
}

// N returns the system dimension.
func (f *SparseCholesky) N() int { return f.n }

// SolveInto solves A·x = b into the caller-supplied x without
// allocating on the steady path (permuted solves draw one scratch
// vector from an internal freelist; after first use the path is
// allocation-free). x and b may alias; b is otherwise not modified.
// SolveInto is safe for concurrent use.
func (f *SparseCholesky) SolveInto(x, b []float64) error {
	if len(b) != f.n {
		return fmt.Errorf("linalg: SparseCholesky.Solve rhs length %d, want %d", len(b), f.n)
	}
	if len(x) != f.n {
		return fmt.Errorf("linalg: SparseCholesky.SolveInto dst length %d, want %d", len(x), f.n)
	}
	if f.perm == nil {
		f.solveNatural(x, b)
		return nil
	}
	z := f.getScratch()
	for k := 0; k < f.n; k++ {
		z[k] = b[f.perm[k]]
	}
	f.solveNatural(z, z)
	for k := 0; k < f.n; k++ {
		x[f.perm[k]] = z[k]
	}
	f.putScratch(z)
	return nil
}

// solveNatural runs both triangular sweeps in the factor's own
// (already permuted) index space, in place on x. x and b may alias.
func (f *SparseCholesky) solveNatural(x, b []float64) {
	// L·y = b, with y accumulated in x.
	for i := 0; i < f.n; i++ {
		s := b[i]
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			s -= f.rowVals[k] * x[f.rowCols[k]]
		}
		x[i] = s / f.diag[i]
	}
	// Lᵀ·x = y in place, via columns of L.
	for i := f.n - 1; i >= 0; i-- {
		s := x[i]
		for k := f.colPtr[i]; k < f.colPtr[i+1]; k++ {
			s -= f.colVals[k] * x[f.colRows[k]]
		}
		x[i] = s / f.diag[i]
	}
}

func (f *SparseCholesky) getScratch() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		z := f.free[n-1]
		f.free = f.free[:n-1]
		return z
	}
	return make([]float64, f.n)
}

func (f *SparseCholesky) putScratch(z []float64) {
	f.mu.Lock()
	f.free = append(f.free, z)
	f.mu.Unlock()
}

// MinDegreeOrdering returns a greedy minimum-degree elimination order
// for the sparsity pattern of a (lowest index wins degree ties, so the
// order is deterministic). On the thermal RC networks it pushes the
// dense convection rows — the heat-sink and ring nodes every block
// couples to — to the end of the elimination, which is exactly where
// their fill is harmless.
func MinDegreeOrdering(a *CSR) []int {
	n := a.n
	adj := make([]map[int32]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int32]struct{})
	}
	for i := 0; i < n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if j := a.colIdx[k]; j != i && a.vals[k] != 0 {
				adj[i][int32(j)] = struct{}{}
				adj[j][int32(i)] = struct{}{}
			}
		}
	}
	perm := make([]int, 0, n)
	done := make([]bool, n)
	nbrs := make([]int, 0, n)
	for len(perm) < n {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if !done[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		// Eliminate best: its neighbors become a clique. The map
		// iteration only fills nbrs, which is sorted before use, so
		// iteration order cannot reach the output.
		nbrs = nbrs[:0]
		for u := range adj[best] {
			nbrs = append(nbrs, int(u))
		}
		sort.Ints(nbrs)
		for _, u := range nbrs {
			delete(adj[u], int32(best))
		}
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				adj[nbrs[x]][int32(nbrs[y])] = struct{}{}
				adj[nbrs[y]][int32(nbrs[x])] = struct{}{}
			}
		}
		adj[best] = nil
		done[best] = true
		perm = append(perm, best)
	}
	return perm
}

// invertPermutation validates perm and writes its inverse
// (inv[original] = position) into inv (length len(perm)), returning
// it, or (nil, nil) for a nil perm.
func invertPermutation(perm, inv []int) ([]int, error) {
	if perm == nil {
		return nil, nil
	}
	n := len(inv)
	if len(perm) != n {
		return nil, fmt.Errorf("linalg: permutation length %d, want %d", len(perm), n)
	}
	for i := range inv {
		inv[i] = -1
	}
	for k, p := range perm {
		if p < 0 || p >= n || inv[p] != -1 {
			return nil, fmt.Errorf("linalg: invalid permutation entry %d at position %d", p, k)
		}
		inv[p] = k
	}
	return inv, nil
}

// checkCSRSymmetric rejects a matrix whose off-diagonal entries differ
// from their transposes by more than 1e-8·(1 + maxAbs), where maxAbs is
// a's largest absolute value. A structurally one-sided entry is
// compared against the zero in its transpose slot, in either
// direction. Rows are visited in increasing order, so the mirrors of a
// row's upper entries are met in increasing column order too: cursor
// (length n, overwritten) holds each row's next unmatched upper entry,
// and the whole check is O(nnz).
func checkCSRSymmetric(a *CSR, maxAbs float64, cursor []int) error {
	tol := 1e-8 * (1 + maxAbs)
	for j := 0; j < a.n; j++ {
		k := a.rowPtr[j]
		for k < a.rowPtr[j+1] && a.colIdx[k] <= j {
			k++
		}
		cursor[j] = k
	}
	for i := 0; i < a.n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1] && a.colIdx[k] < i; k++ {
			// Lower entry (i, j): its mirror (j, i) is row j's next
			// unmatched upper entry, unless that row skips column i.
			// Upper entries it passes over have no mirror.
			j := a.colIdx[k]
			c, end := cursor[j], a.rowPtr[j+1]
			for c < end && a.colIdx[c] < i {
				if math.Abs(a.vals[c]) > tol {
					return ErrNotSPD
				}
				c++
			}
			mirror := 0.0
			if c < end && a.colIdx[c] == i {
				mirror = a.vals[c]
				c++
			}
			cursor[j] = c
			if math.Abs(a.vals[k]-mirror) > tol {
				return ErrNotSPD
			}
		}
	}
	// Upper entries no lower entry reached have no mirror.
	for j := 0; j < a.n; j++ {
		for c := cursor[j]; c < a.rowPtr[j+1]; c++ {
			if math.Abs(a.vals[c]) > tol {
				return ErrNotSPD
			}
		}
	}
	return nil
}
