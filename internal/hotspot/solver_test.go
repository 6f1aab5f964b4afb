package hotspot

import (
	"math"
	"testing"

	"thermalsched/internal/floorplan"
)

func solverModel(t *testing.T, blocks int, solver string) *Model {
	t.Helper()
	fp, err := floorplan.Grid("b", blocks, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Solver = solver
	m, err := NewModel(fp, cfg)
	if err != nil {
		t.Fatalf("NewModel(%s): %v", solver, err)
	}
	return m
}

func TestSolverKindNormalization(t *testing.T) {
	var c Config
	if got := c.SolverKind(); got != SolverDense {
		t.Fatalf("SolverKind() = %q for empty Solver, want %q", got, SolverDense)
	}
	c.Solver = SolverSparse
	if got := c.SolverKind(); got != SolverSparse {
		t.Fatalf("SolverKind() = %q, want %q", got, SolverSparse)
	}
}

func TestConfigValidateSolver(t *testing.T) {
	cfg := DefaultConfig()
	for _, s := range []string{"cuda", "pcg"} {
		cfg.Solver = s
		if err := cfg.Validate(); err == nil {
			t.Fatalf("Validate accepted unknown solver %q", s)
		}
	}
	for _, s := range append(SolverNames(), "") {
		cfg.Solver = s
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate rejected solver %q: %v", s, err)
		}
	}
}

// TestConductanceIdenticalAcrossBackends pins the shared-assembly
// property: the conductance matrix is bitwise identical no matter
// which solver backend the model was built for.
func TestConductanceIdenticalAcrossBackends(t *testing.T) {
	dense := solverModel(t, 12, SolverDense)
	sparse := solverModel(t, 12, SolverSparse)
	gd, gs := dense.csr.Dense(), sparse.csr.Dense()
	for i := 0; i < gd.Rows(); i++ {
		for j := 0; j < gd.Cols(); j++ {
			if gd.At(i, j) != gs.At(i, j) {
				t.Fatalf("G[%d,%d] differs across backends: dense %v sparse %v",
					i, j, gd.At(i, j), gs.At(i, j))
			}
		}
	}
	if nnz := dense.ConductanceNNZ(); nnz >= gd.Rows()*gd.Cols() {
		t.Fatalf("conductance NNZ %d not sparse for %d nodes", nnz, gd.Rows())
	}
}

// TestSolverBackendsAgree drives the sparse backend through the full
// steady-state API surface and requires agreement with the dense
// golden reference far inside the documented 1e-6 K contract.
func TestSolverBackendsAgree(t *testing.T) {
	const blocks = 24
	dense := solverModel(t, blocks, SolverDense)
	p := make([]float64, blocks)
	for i := range p {
		p[i] = float64((i*7)%5) * 1.5
	}
	want := make([]float64, blocks)
	if err := dense.SteadyStateInto(want, p); err != nil {
		t.Fatal(err)
	}
	const solver = SolverSparse
	// The sparse direct factorization tracks dense to rounding.
	const tol = 1e-9
	m := solverModel(t, blocks, solver)
	got := make([]float64, blocks)
	if err := m.SteadyStateInto(got, p); err != nil {
		t.Fatalf("%s SteadyStateInto: %v", solver, err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s temp[%d] = %v, dense %v (|Δ| = %g)",
				solver, i, got[i], want[i], math.Abs(got[i]-want[i]))
		}
	}
	direct, err := m.SteadyStateDirect(p)
	if err != nil {
		t.Fatalf("%s SteadyStateDirect: %v", solver, err)
	}
	for i, v := range direct.Values() {
		if math.Abs(v-want[i]) > tol {
			t.Fatalf("%s direct temp[%d] = %v, dense %v", solver, i, v, want[i])
		}
	}
	wrow, err := dense.InfluenceRow(3)
	if err != nil {
		t.Fatal(err)
	}
	grow, err := m.InfluenceRow(3)
	if err != nil {
		t.Fatalf("%s InfluenceRow: %v", solver, err)
	}
	for j := range wrow {
		if math.Abs(grow[j]-wrow[j]) > tol {
			t.Fatalf("%s InfluenceRow[3][%d] = %v, dense %v", solver, j, grow[j], wrow[j])
		}
	}
	wr, err := dense.SteadyNodeRise(p)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := m.SteadyNodeRise(p)
	if err != nil {
		t.Fatalf("%s SteadyNodeRise: %v", solver, err)
	}
	for i := range wr {
		if math.Abs(gr[i]-wr[i]) > tol {
			t.Fatalf("%s node rise[%d] = %v, dense %v", solver, i, gr[i], wr[i])
		}
	}
}

// TestSparseBackendTransient checks that a sparse-backend model can
// still run the (dense) transient stepper, via the lazy dense image.
func TestSparseBackendTransient(t *testing.T) {
	m := solverModel(t, 9, SolverSparse)
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

// TestTruncatedPathsZeroAllocs proves the sparse backend's hot paths
// allocate nothing once the touched influence rows are warm — the
// large-platform counterpart of the PR-2 dense guarantees.
func TestTruncatedPathsZeroAllocs(t *testing.T) {
	const solver = SolverSparse
	m := solverModel(t, 16, solver)
	p := make([]float64, 16)
	p[1], p[6], p[11] = 4, 2.5, 7
	dst := make([]float64, 16)
	if err := m.SteadyStateInto(dst, p); err != nil { // warm the row cache
		t.Fatal(err)
	}
	if _, err := m.InfluenceRow(6); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := m.SteadyStateInto(dst, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%s SteadyStateInto allocates %v per run after warm-up", solver, n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.InfluenceRow(6); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%s InfluenceRow allocates %v per run after warm-up", solver, n)
	}
}
