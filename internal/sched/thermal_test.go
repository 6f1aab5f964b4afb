package sched

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// buildPlatform returns the 4-PE platform with both the oracle and the
// underlying model (the golden tests need the model to drive the slow
// reference path).
func buildPlatform(t testing.TB, lib *techlib.Library) (Architecture, *hotspot.Model, *ModelOracle) {
	t.Helper()
	return buildPlatformSolver(t, lib, hotspot.SolverDense)
}

// buildPlatformSolver is buildPlatform with the model's elimination
// order chosen by solver.
func buildPlatformSolver(t testing.TB, lib *techlib.Library, solver string) (Architecture, *hotspot.Model, *ModelOracle) {
	t.Helper()
	arch, err := PlatformFromTypes(lib, techlib.PlatformPETypeNames(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	area := lib.PEType(arch.PEs[0].Type).Area
	fp, err := floorplan.Row("pe", 4, area)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hotspot.DefaultConfig()
	cfg.Solver = solver
	model, err := hotspot.NewModel(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewModelOracle(model, arch)
	if err != nil {
		t.Fatal(err)
	}
	return arch, model, oracle
}

// slowOracle is the pre-influence reference: every inquiry is a fresh
// triangular solve of the full power vector, base plus delta. The fast
// ModelOracle is verified against it — same semantics, different
// solver path.
type slowOracle struct {
	model     *hotspot.Model
	peToBlock []int
	base      []float64
}

func newSlowOracle(t testing.TB, model *hotspot.Model, arch Architecture) *slowOracle {
	t.Helper()
	names := model.BlockNames()
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	o := &slowOracle{model: model, peToBlock: make([]int, len(arch.PEs))}
	for i, pe := range arch.PEs {
		bi, ok := index[pe.Name]
		if !ok {
			t.Fatalf("PE %q has no block", pe.Name)
		}
		o.peToBlock[i] = bi
	}
	return o
}

func (o *slowOracle) SetBase(pePower []float64) error {
	o.base = append(o.base[:0], pePower...)
	return nil
}

func (o *slowOracle) AvgTempDelta(pe int, deltaW float64) (float64, error) {
	full := append([]float64(nil), o.base...)
	full[pe] += deltaW
	return o.avgTemp(full)
}

// avgTemp is the steady-state temperature under pePower averaged over
// the PEs in use, or over all blocks when none is.
func (o *slowOracle) avgTemp(pePower []float64) (float64, error) {
	block := make([]float64, o.model.NumBlocks())
	for i, w := range pePower {
		block[o.peToBlock[i]] += w
	}
	temps, err := o.model.SteadyStateDirect(block)
	if err != nil {
		return 0, err
	}
	vals := temps.Values()
	var sum float64
	n := 0
	for i, w := range pePower {
		if w > 0 {
			sum += vals[o.peToBlock[i]]
			n++
		}
	}
	if n > 0 {
		return sum / float64(n), nil
	}
	return temps.Avg(), nil
}

// TestGoldenFastOracleMatchesSlow schedules all four paper benchmarks
// thermally with the influence-matrix fast path (incremental deltas)
// and with the reference per-inquiry solver: the schedules must be
// identical and the reported temperatures equal to 1e-9.
func TestGoldenFastOracleMatchesSlow(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, model, fast := buildPlatform(t, lib)
	slow := newSlowOracle(t, model, arch)
	for _, bench := range taskgraph.BenchmarkNames() {
		g, err := taskgraph.Benchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfgFast := DefaultConfig(ThermalAware)
		cfgFast.Oracle = fast
		sFast, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfgFast)
		if err != nil {
			t.Fatalf("%s fast: %v", bench, err)
		}
		cfgSlow := DefaultConfig(ThermalAware)
		cfgSlow.Oracle = slow
		sSlow, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfgSlow)
		if err != nil {
			t.Fatalf("%s slow: %v", bench, err)
		}
		for id := range sFast.Assignments {
			af, as := sFast.Assignments[id], sSlow.Assignments[id]
			if af != as {
				t.Errorf("%s task %d: fast %+v, slow %+v", bench, id, af, as)
			}
		}
		if sFast.Makespan != sSlow.Makespan {
			t.Errorf("%s makespan: fast %v, slow %v", bench, sFast.Makespan, sSlow.Makespan)
		}
		// Final temperatures from the fast path vs the direct solver.
		pow, err := sFast.PEAveragePower(g.Deadline)
		if err != nil {
			t.Fatal(err)
		}
		fastTemps, err := fast.Temps(pow)
		if err != nil {
			t.Fatal(err)
		}
		block := make([]float64, model.NumBlocks())
		for i, w := range pow {
			block[i] += w
		}
		directTemps, err := model.SteadyStateDirect(block)
		if err != nil {
			t.Fatal(err)
		}
		fv, dv := fastTemps.Values(), directTemps.Values()
		for i := range fv {
			if math.Abs(fv[i]-dv[i]) > 1e-9 {
				t.Errorf("%s block %d: fast %v, direct %v", bench, i, fv[i], dv[i])
			}
		}
	}
}

// TestIncrementalMatchesFullInquiry checks AvgTempDelta against the
// equivalent full inquiry, a direct solve of base plus delta, over
// random bases and deltas.
func TestIncrementalMatchesFullInquiry(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, model, oracle := buildPlatform(t, lib)
	slow := newSlowOracle(t, model, arch)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		base := make([]float64, 4)
		for i := range base {
			if rng.Float64() < 0.3 {
				continue // leave some PEs idle: exercises the in-use average
			}
			base[i] = rng.Float64() * 10
		}
		if err := oracle.SetBase(base); err != nil {
			t.Fatal(err)
		}
		pe := rng.Intn(4)
		delta := rng.Float64() * 8
		if trial%10 == 0 {
			delta = 0 // the base itself
		}
		got, err := oracle.AvgTempDelta(pe, delta)
		if err != nil {
			t.Fatal(err)
		}
		full := append([]float64(nil), base...)
		full[pe] += delta
		want, err := slow.avgTemp(full)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("base=%v pe=%d delta=%v: delta %v, full %v", base, pe, delta, got, want)
		}
	}
}

func TestIncrementalOracleErrors(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	_, _, oracle := buildPlatform(t, lib)
	if _, err := oracle.AvgTempDelta(0, 1); err == nil {
		t.Error("AvgTempDelta before SetBase accepted")
	}
	if err := oracle.SetBase([]float64{1}); err == nil {
		t.Error("short base accepted")
	}
	if err := oracle.SetBase([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.AvgTempDelta(-1, 1); err == nil {
		t.Error("negative PE accepted")
	}
	if _, err := oracle.AvgTempDelta(4, 1); err == nil {
		t.Error("out-of-range PE accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := oracle.AvgTempDelta(0, bad); err == nil {
			t.Errorf("invalid delta %v accepted", bad)
		}
	}
}

// TestThermalInquiryZeroAllocs pins the tentpole property: once the
// PE blocks' influence columns are warm, a step's base solve and its
// candidate inquiries allocate nothing, under both elimination orders.
func TestThermalInquiryZeroAllocs(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range hotspot.SolverNames() {
		_, _, oracle := buildPlatformSolver(t, lib, solver)
		p := []float64{5, 0, 3, 1}
		if err := oracle.SetBase(p); err != nil { // warm up
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := oracle.SetBase(p); err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.AvgTempDelta(2, 4.5); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s SetBase+AvgTempDelta allocates %v per run", solver, n)
		}
	}
}

// Two PEs sharing one thermal block must have their powers accumulated,
// not overwritten. The public constructor rejects such architectures,
// so the scenario is built directly on the oracle's internals.
func TestOracleAccumulatesSharedBlockPower(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	_, model, single := buildPlatform(t, lib)
	shared := newModelOracle(model, []int{0, 0}) // both PEs on block 0
	want := avgTempOf(t, single, []float64{5, 0, 0, 0})
	if got := avgTempOf(t, shared, []float64{2, 3}); math.Abs(got-want) > 1e-9 {
		t.Errorf("shared-block average = %v, want %v (5 W on block 0)", got, want)
	}
	// A delta on one PE heats the block both PEs sit on.
	if err := shared.SetBase([]float64{2, 1.5}); err != nil {
		t.Fatal(err)
	}
	got, err := shared.AvgTempDelta(1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("shared-block AvgTempDelta = %v, want %v (5 W on block 0)", got, want)
	}
	// Temps must accumulate too.
	temps, err := shared.Temps([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.Temps([]float64{5, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	tv, rv := temps.Values(), ref.Values()
	for i := range tv {
		if math.Abs(tv[i]-rv[i]) > 1e-9 {
			t.Errorf("shared-block Temps[%d] = %v, want %v", i, tv[i], rv[i])
		}
	}
}

func TestNewModelOracleRejectsSharedBlocks(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, model, _ := buildPlatform(t, lib)
	dup := arch
	dup.PEs = append([]PE(nil), arch.PEs...)
	dup.PEs[1].Name = dup.PEs[0].Name // two PEs → one block
	if _, err := NewModelOracle(model, dup); err == nil {
		t.Error("architecture with two PEs on one block accepted")
	}
}

func TestValidateRejectsDuplicatePENames(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, _, _ := buildPlatform(t, lib)
	dup := arch
	dup.PEs = append([]PE(nil), arch.PEs...)
	dup.PEs[2].Name = dup.PEs[0].Name
	if err := dup.Validate(lib); err == nil {
		t.Error("duplicate PE names accepted by Validate")
	}
}

// TestSparseOracleMatchesDenseAndAllocsNothing runs the oracle on a
// min-degree-ordered model: the answers must track the natural-order
// oracle to rounding, and — the large-platform contract — the inquiry
// path must allocate nothing once the touched influence columns are
// warm.
func TestSparseOracleMatchesDenseAndAllocsNothing(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	_, _, denseOracle := buildPlatform(t, lib)
	_, _, oracle := buildPlatformSolver(t, lib, hotspot.SolverSparse)
	p := []float64{5, 0, 3, 1}
	if got, want := avgTempOf(t, oracle, p), avgTempOf(t, denseOracle, p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("sparse base average = %v, dense %v", got, want)
	}
	for pe := range p {
		gd, err := oracle.AvgTempDelta(pe, 4.5)
		if err != nil {
			t.Fatal(err)
		}
		wd, err := denseOracle.AvgTempDelta(pe, 4.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gd-wd) > 1e-9 {
			t.Fatalf("PE %d: sparse AvgTempDelta = %v, dense %v", pe, gd, wd)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := oracle.SetBase(p); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.AvgTempDelta(2, 4.5); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("sparse SetBase+AvgTempDelta allocates %v per run", n)
	}
}
