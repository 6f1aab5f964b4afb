package thermalsched

import (
	"context"
	"testing"
)

// These tests exercise the public facade end to end, exactly as the
// examples and downstream users would.

func TestFacadeQuickstartPath(t *testing.T) {
	g, err := Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := testEngine(t).Platform(context.Background(), g, WithPolicy(ThermalAware))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Feasible {
		t.Errorf("quickstart path infeasible: makespan %v", res.Metrics.Makespan)
	}
	if res.Metrics.MaxTemp <= DefaultThermalConfig().AmbientC {
		t.Errorf("max temp %v not above ambient", res.Metrics.MaxTemp)
	}
}

func TestFacadeCustomGraphAndArch(t *testing.T) {
	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := GenerateGraph(GenParams{
		Name: "custom", Tasks: 10, Edges: 12, Deadline: 2000,
		Types: 8, Sources: 1, MaxData: 10, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	arch := Architecture{
		Name: "duo",
		PEs:  []PE{{Name: "a", Type: 0}, {Name: "b", Type: 1}},
	}
	cfg := SchedConfig{Policy: MinTaskEnergy, EnergyWeight: 0.3}
	s, err := AllocateAndSchedule(g, arch, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	prof, err := PowerProfileOf(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.PENames) != 2 {
		t.Error("power profile wrong shape")
	}
}

func TestFacadePolicyParsing(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("policy %v round trip failed", p)
		}
	}
}

func TestFacadeFloorplanAndThermal(t *testing.T) {
	blocks := []FloorplanBlock{
		{Name: "cpu", Area: 16e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "dsp", Area: 9e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "mem", Area: 25e-6, MinAspect: 0.5, MaxAspect: 2},
	}
	cfg := DefaultGAConfig()
	cfg.Generations = 10
	res, err := FloorplanGA(blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewThermalModel(res.Plan, DefaultThermalConfig())
	if err != nil {
		t.Fatal(err)
	}
	temps, err := model.SteadyState(map[string]float64{"cpu": 8, "dsp": 3})
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := temps.Of("cpu")
	mem, _ := temps.Of("mem")
	if cpu <= mem {
		t.Errorf("powered cpu (%v) should be hotter than idle mem (%v)", cpu, mem)
	}
}

func TestFacadeLeakage(t *testing.T) {
	l := DefaultLeakage()
	if l.At(100) <= l.At(50) {
		t.Error("leakage must grow with temperature")
	}
}

func TestFacadeCoSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("co-synthesis skipped in -short mode")
	}
	g, err := Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := testEngine(t).CoSynthesize(context.Background(), g,
		WithPolicy(MinTaskEnergy), WithFloorplanGenerations(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Feasible {
		t.Errorf("co-synthesis infeasible: %v", res.Metrics.Makespan)
	}
}

func TestFacadeSimAndDTM(t *testing.T) {
	g, err := Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	run, err := testEngine(t).Platform(context.Background(), g, WithPolicy(ThermalAware))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := ExecuteSchedule(run.Schedule, SimOptions{MinFactor: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Makespan > run.Schedule.Makespan {
		t.Error("actual makespan exceeds worst case")
	}
	toggle, err := NewToggleDTM(88, 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := SuperviseDTM(toggle, Ladder{FairC: 72, SeriousC: 80, CriticalC: 88})
	if err != nil {
		t.Fatal(err)
	}
	temps := []float64{90, 70, 70, 70}
	scale := make([]float64, len(temps))
	if err := sup.ScaleInto(scale, temps); err != nil {
		t.Fatal(err)
	}
	if scale[0] != 0.4 || scale[1] != 1 {
		t.Errorf("toggle scales %v, want the 90 °C block at 0.4 and the rest at 1", scale)
	}
	if s := sup.StateOf(0, temps); s.String() != "critical" {
		t.Errorf("90 °C classified %v, want critical", s)
	}
	pi, err := NewPIDTM(85, 0.05, 0.002, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.ScaleInto(scale, temps); err != nil {
		t.Fatal(err)
	}
	if !(scale[0] < 1) || scale[1] != 1 {
		t.Errorf("PI scales %v, want only the block above the setpoint throttled", scale)
	}
}

func TestFacadeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	res, err := testEngine(t).Sweep(context.Background(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graphs != 4 {
		t.Errorf("sweep graphs = %d", res.Graphs)
	}
}

func TestFacadeConditionalGraph(t *testing.T) {
	g, err := GenerateGraph(GenParams{
		Name: "ctg", Tasks: 12, Edges: 16, Deadline: 1000,
		Types: 8, Sources: 1, MaxData: 10, BranchFraction: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasConditionalEdges() {
		t.Fatal("no conditional edges generated")
	}
	probs, err := g.ExecutionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 12 {
		t.Errorf("probabilities length %d", len(probs))
	}
	run, err := testEngine(t).Platform(context.Background(), g, WithPolicy(MinTaskEnergy))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := run.Schedule.ExpectedEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if exp >= run.Schedule.TotalEnergy() {
		t.Error("expected energy should be below worst case for a CTG")
	}
	res, err := ExecuteSchedule(run.Schedule, SimOptions{MinFactor: 1, Seed: 1, Conditional: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed >= g.NumTasks() {
		t.Log("all branches taken this seed (possible)")
	}
}
