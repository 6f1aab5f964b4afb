package hotspot

import (
	"math"
	"slices"
	"testing"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/linalg"
)

// gridPlan returns a floorplan.Grid of blocks equal square blocks.
func gridPlan(t *testing.T, blocks int) *floorplan.Floorplan {
	t.Helper()
	fp, err := floorplan.Grid("b", blocks, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// gridModel builds the model NewModel picks for a blocks-block grid.
func gridModel(t *testing.T, blocks int) *Model {
	t.Helper()
	m, err := NewModel(gridPlan(t, blocks), DefaultConfig())
	if err != nil {
		t.Fatalf("NewModel(%d blocks): %v", blocks, err)
	}
	return m
}

// orderedModels builds the natural-order and the min-degree-order
// model of one floorplan, for the tests that compare the two orders.
func orderedModels(t *testing.T, fp *floorplan.Floorplan) (natural, minDegree *Model) {
	t.Helper()
	natural, err := newModel(fp, DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	minDegree, err = newModel(fp, DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	return natural, minDegree
}

// denseSolve solves a·x = b by the textbook dense Cholesky
// factorization, accumulating every inner product in increasing index
// order: the oracle a natural-order factor must match bit for bit.
func denseSolve(a *linalg.CSR, b []float64) []float64 {
	n := a.N()
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l[j][k] * l[j][k]
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l[i][j] * x[j]
		}
		x[i] = s / l[i][i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= l[j][i] * x[j]
		}
		x[i] = s / l[i][i]
	}
	return x
}

// TestSteadyOrderFollowsBlockCount pins the size rule on grids on both
// sides of minDegreeBlocks. Below it the steady factor is in natural
// order, and every unit solve matches the dense oracle bit for bit; at
// or above it the factor uses the min-degree order. On every size the
// two orders agree to well inside 1e-6 K.
func TestSteadyOrderFollowsBlockCount(t *testing.T) {
	for _, blocks := range []int{4, 16, minDegreeBlocks - 1, minDegreeBlocks, minDegreeBlocks + 9} {
		m := gridModel(t, blocks)
		if blocks < minDegreeBlocks {
			if m.order != nil {
				t.Fatalf("%d blocks: steady factor ordered %v, want natural order", blocks, m.order)
			}
			e := make([]float64, m.total)
			got := make([]float64, m.total)
			for j := 0; j < m.total; j++ {
				e[j] = 1
				if err := m.solv.SolveInto(got, e); err != nil {
					t.Fatal(err)
				}
				want := denseSolve(m.csr, e)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%d blocks: G⁻¹[%d,%d] = %v, dense oracle %v", blocks, i, j, got[i], want[i])
					}
				}
				e[j] = 0
			}
		} else if want := linalg.MinDegreeOrdering(m.csr); !slices.Equal(m.order, want) {
			t.Fatalf("%d blocks: steady factor ordered %v, want min-degree %v", blocks, m.order, want)
		}
		natural, minDegree := orderedModels(t, gridPlan(t, blocks))
		for j := 0; j < blocks; j++ {
			a, err := natural.InfluenceRow(j)
			if err != nil {
				t.Fatal(err)
			}
			b, err := minDegree.InfluenceRow(j)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if d := math.Abs(a[i] - b[i]); d > 1e-6 {
					t.Fatalf("%d blocks: rise[%d] per watt in %d differs by %g K across orders", blocks, i, j, d)
				}
			}
		}
	}
}

// TestConductanceIdenticalAcrossBackends pins the shared-assembly
// property: the conductance matrix is bitwise identical under either
// elimination order.
func TestConductanceIdenticalAcrossBackends(t *testing.T) {
	natural, minDegree := orderedModels(t, gridPlan(t, 12))
	gd, gs := natural.csr, minDegree.csr
	n := gd.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if gd.At(i, j) != gs.At(i, j) {
				t.Fatalf("G[%d,%d] differs across orders: natural %v min-degree %v",
					i, j, gd.At(i, j), gs.At(i, j))
			}
		}
	}
	if nnz := natural.ConductanceNNZ(); nnz >= n*n {
		t.Fatalf("conductance NNZ %d not sparse for %d nodes", nnz, n)
	}
}

// TestSolverBackendsAgree drives a min-degree-order model through the
// full steady-state API surface and requires agreement with the
// natural-order model of the same floorplan far inside 1e-6 K.
func TestSolverBackendsAgree(t *testing.T) {
	const blocks = 24
	natural, m := orderedModels(t, gridPlan(t, blocks))
	p := make([]float64, blocks)
	for i := range p {
		p[i] = float64((i*7)%5) * 1.5
	}
	want := make([]float64, blocks)
	if err := natural.SteadyStateInto(want, p); err != nil {
		t.Fatal(err)
	}
	// The min-degree factorization tracks natural order to rounding.
	const tol = 1e-9
	got := make([]float64, blocks)
	if err := m.SteadyStateInto(got, p); err != nil {
		t.Fatalf("min-degree SteadyStateInto: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("min-degree temp[%d] = %v, natural %v (|Δ| = %g)",
				i, got[i], want[i], math.Abs(got[i]-want[i]))
		}
	}
	direct, err := m.SteadyStateDirect(p)
	if err != nil {
		t.Fatalf("min-degree SteadyStateDirect: %v", err)
	}
	for i, v := range direct.Values() {
		if math.Abs(v-want[i]) > tol {
			t.Fatalf("min-degree direct temp[%d] = %v, natural %v", i, v, want[i])
		}
	}
	wrow, err := natural.InfluenceRow(3)
	if err != nil {
		t.Fatal(err)
	}
	grow, err := m.InfluenceRow(3)
	if err != nil {
		t.Fatalf("min-degree InfluenceRow: %v", err)
	}
	for j := range wrow {
		if math.Abs(grow[j]-wrow[j]) > tol {
			t.Fatalf("min-degree InfluenceRow[3][%d] = %v, natural %v", j, grow[j], wrow[j])
		}
	}
	wr, err := natural.SteadyNodeRise(p)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := m.SteadyNodeRise(p)
	if err != nil {
		t.Fatalf("min-degree SteadyNodeRise: %v", err)
	}
	for i := range wr {
		if math.Abs(gr[i]-wr[i]) > tol {
			t.Fatalf("min-degree node rise[%d] = %v, natural %v", i, gr[i], wr[i])
		}
	}
}

// TestSparseBackendTransient checks that a model large enough for the
// min-degree steady factor runs the transient stepper too.
func TestSparseBackendTransient(t *testing.T) {
	m := gridModel(t, minDegreeBlocks+4)
	tr, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatalf("NewTransient: %v", err)
	}
	temps, err := tr.Step(map[string]float64{"b0": 10})
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if temps.Max() <= m.Config().AmbientC {
		t.Fatalf("transient step did not heat: max %v", temps.Max())
	}
}

// TestTruncatedPathsZeroAllocs proves the min-degree-order hot paths
// allocate nothing once the touched influence columns are warm — the
// large-platform counterpart of TestSteadyStateIntoZeroAllocs.
func TestTruncatedPathsZeroAllocs(t *testing.T) {
	checkWarmPathsZeroAllocs(t, minDegreeBlocks+16)
}
