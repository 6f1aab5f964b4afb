package sched_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// refInfluence is the n×n influence matrix natural-order models once
// built eagerly: S[i*n+j] is entry i of the solve for a unit load on
// block j (SteadyNodeRise runs the same solve on the same vector).
func refInfluence(t *testing.T, m *hotspot.Model) []float64 {
	t.Helper()
	n := m.NumBlocks()
	s := make([]float64, n*n)
	unit := make([]float64, n)
	for j := 0; j < n; j++ {
		unit[j] = 1
		rise, err := m.SteadyNodeRise(unit)
		if err != nil {
			t.Fatal(err)
		}
		unit[j] = 0
		for i := 0; i < n; i++ {
			s[i*n+j] = rise[i]
		}
	}
	return s
}

// refSteady is the matrix-era SteadyStateInto: one row inner product
// per block, over every power entry.
func refSteady(s []float64, power []float64, ambient float64) []float64 {
	n := len(power)
	out := make([]float64, n)
	for i := range out {
		var sum float64
		for j, w := range power {
			sum += s[i*n+j] * w
		}
		out[i] = sum + ambient
	}
	return out
}

// refOracle is the matrix-era ModelOracle inquiry: the base solved
// through refSteady, each candidate answered from row block(pe) of S.
type refOracle struct {
	s         []float64
	n         int
	ambient   float64
	peToBlock []int
	basePE    []float64
	baseTemps []float64
}

func (r *refOracle) setBase(pePower []float64) {
	block := make([]float64, r.n)
	for i, w := range pePower {
		block[r.peToBlock[i]] += w
	}
	r.basePE = append(r.basePE[:0], pePower...)
	r.baseTemps = refSteady(r.s, block, r.ambient)
}

func (r *refOracle) avgTempDelta(pe int, deltaW float64) float64 {
	row := r.s[r.peToBlock[pe]*r.n:]
	var sum float64
	n := 0
	for j, w := range r.basePE {
		if j == pe {
			w += deltaW
		}
		if w > 0 {
			bj := r.peToBlock[j]
			sum += r.baseTemps[bj] + row[bj]*deltaW
			n++
		}
	}
	if n > 0 {
		return sum / float64(n)
	}
	sum = 0
	for i, t := range r.baseTemps {
		sum += t + row[i]*deltaW
	}
	return sum / float64(len(r.baseTemps))
}

// checkedOracle forwards every inquiry of a schedule to the model
// oracle and requires its answer to equal the matrix-era one bit for
// bit; each base is also checked through SteadyStateInto.
type checkedOracle struct {
	t       *testing.T
	label   string
	model   *hotspot.Model
	o       *sched.ModelOracle
	ref     *refOracle
	temps   []float64
	queries int
}

func (c *checkedOracle) SetBase(pePower []float64) error {
	c.ref.setBase(pePower)
	block := make([]float64, c.model.NumBlocks())
	for i, w := range pePower {
		block[c.ref.peToBlock[i]] += w
	}
	if err := c.model.SteadyStateInto(c.temps, block); err != nil {
		return err
	}
	for i, v := range c.temps {
		if math.Float64bits(v) != math.Float64bits(c.ref.baseTemps[i]) {
			c.t.Fatalf("%s: SteadyStateInto block %d = %v, matrix %v", c.label, i, v, c.ref.baseTemps[i])
		}
	}
	return c.o.SetBase(pePower)
}

func (c *checkedOracle) AvgTempDelta(pe int, deltaW float64) (float64, error) {
	got, err := c.o.AvgTempDelta(pe, deltaW)
	if err != nil {
		return 0, err
	}
	if want := c.ref.avgTempDelta(pe, deltaW); math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("%s: AvgTempDelta(%d, %v) = %v, matrix %v", c.label, pe, deltaW, got, want)
	}
	c.queries++
	return got, nil
}

// checkAgainstMatrix schedules g thermally on arch over a natural-order
// model of fp, checking every inquiry against the matrix, then checks
// SteadyStateInto on random power vectors with some blocks unpowered.
func checkAgainstMatrix(t *testing.T, label string, fp *floorplan.Floorplan, arch sched.Architecture, g *taskgraph.Graph, lib *techlib.Library) {
	t.Helper()
	model, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sched.NewModelOracle(model, arch)
	if err != nil {
		t.Fatal(err)
	}
	s := refInfluence(t, model)
	n := model.NumBlocks()
	ref := &refOracle{s: s, n: n, ambient: model.Config().AmbientC}
	index := make(map[string]int, n)
	for i, name := range model.BlockNames() {
		index[name] = i
	}
	for _, pe := range arch.PEs {
		ref.peToBlock = append(ref.peToBlock, index[pe.Name])
	}
	checked := &checkedOracle{t: t, label: label, model: model, o: oracle, ref: ref, temps: make([]float64, n)}
	cfg := sched.DefaultConfig(sched.ThermalAware)
	cfg.Oracle = checked
	if _, err := sched.AllocateAndSchedule(context.Background(), g, arch, lib, cfg); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if checked.queries == 0 {
		t.Fatalf("%s: the schedule issued no thermal inquiry", label)
	}

	rng := rand.New(rand.NewSource(int64(n)))
	got := make([]float64, n)
	for trial := 0; trial < 20; trial++ {
		p := make([]float64, n)
		for i := range p {
			if rng.Float64() < 0.5 {
				p[i] = rng.Float64() * 8
			}
		}
		if err := model.SteadyStateInto(got, p); err != nil {
			t.Fatal(err)
		}
		want := refSteady(s, p, ref.ambient)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: SteadyStateInto block %d = %v, matrix %v (power %v)", label, i, got[i], want[i], p)
			}
		}
	}
}

// Influence columns solved on demand, and each PE's reach gathered
// across them, must reproduce the eagerly built influence matrix bit
// for bit: on the co-synthesized floorplans of every paper benchmark
// and on a 64-block grid whose PEs cover only some blocks.
func TestInfluenceColumnsMatchMatrixBitForBit(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range taskgraph.BenchmarkNames() {
		g, err := taskgraph.Benchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cosynth.DefaultCoSynthConfig(sched.ThermalAware)
		cfg.MaxPEs, cfg.FloorplanGenerations = 4, 2
		res, err := cosynth.RunCoSynthesis(context.Background(), g, lib, cfg)
		if err != nil {
			t.Fatalf("%s co-synthesis: %v", bench, err)
		}
		checkAgainstMatrix(t, bench+" co-synthesis", res.Plan, res.Arch, g, lib)
	}

	fp, err := floorplan.Grid("b", 64, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := sched.PlatformFromTypes(lib, append(techlib.PlatformPETypeNames(), techlib.PlatformPETypeNames()...), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arch.PEs {
		arch.PEs[i].Name = fmt.Sprintf("b%d", 9*i) // the grid's diagonal
	}
	g, err := taskgraph.Benchmark("Bm2")
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstMatrix(t, "64-block grid", fp, arch, g, lib)
}
