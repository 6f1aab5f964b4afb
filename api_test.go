package thermalsched

import (
	"context"
	"testing"
)

// These tests exercise the public facade end to end, exactly as the
// examples and downstream users would.

func TestFacadeQuickstartPath(t *testing.T) {
	resp, err := testEngine(t).Run(context.Background(), Request{Flow: FlowPlatform,
		Benchmark: "Bm1", Policy: "thermal"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Metrics.Feasible {
		t.Errorf("quickstart path infeasible: makespan %v", resp.Metrics.Makespan)
	}
	if resp.Metrics.MaxTemp <= DefaultThermalConfig().AmbientC {
		t.Errorf("max temp %v not above ambient", resp.Metrics.MaxTemp)
	}
}

func TestFacadeCustomGraphAndArch(t *testing.T) {
	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := GenerateScenario(ScenarioSpec{Name: "custom", Seed: 99,
		Graph: ScenarioGraphParams{Tasks: 10}})
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Graph
	arch := Architecture{
		Name: "duo",
		PEs:  []PE{{Name: "a", Type: 0}, {Name: "b", Type: 1}},
	}
	cfg := SchedConfig{Policy: MinTaskEnergy, EnergyWeight: 0.3}
	s, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.PEEnergy()) != 2 {
		t.Error("per-PE energy wrong shape")
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

// A pool built through the facade parallelizes FloorplanGA without
// changing its result.
func TestFacadeFloorplanGASearchPool(t *testing.T) {
	blocks := []FloorplanBlock{
		{Name: "cpu", Area: 16e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "dsp", Area: 9e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "mem", Area: 25e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "io", Area: 4e-6, MinAspect: 0.5, MaxAspect: 2},
	}
	cfg := DefaultGAConfig()
	cfg.Generations = 10
	serial, err := FloorplanGA(blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if NewSearchPool(1) != nil {
		t.Error("NewSearchPool(1) is not the serial pool")
	}
	cfg.Pool = NewSearchPool(4)
	parallel, err := FloorplanGA(blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Plan.String() != serial.Plan.String() || parallel.Cost != serial.Cost {
		t.Errorf("pooled GA differs from serial:\n%s\nvs\n%s", parallel.Plan, serial.Plan)
	}
}

func TestFacadeCoSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("co-synthesis skipped in -short mode")
	}
	resp, err := testEngine(t).Run(context.Background(), Request{Flow: FlowCoSynthesis,
		Benchmark: "Bm1", Policy: "heuristic3", FloorplanGenerations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Metrics.Feasible {
		t.Errorf("co-synthesis infeasible: %v", resp.Metrics.Makespan)
	}
}

func TestFacadeSimAndDTM(t *testing.T) {
	// The unthrottled reference run: shorter tasks never finish later
	// than the worst-case (static) schedule.
	resp, err := testEngine(t).Run(context.Background(), Request{Flow: FlowSimulate,
		Benchmark: "Bm1", Policy: "thermal",
		Simulate: &SimulateSpec{Controller: "none", MinFactor: 0.8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := resp.Simulate; rep.Makespan.Max > rep.StaticMakespan+1e-6 || rep.ThrottleTime.Max != 0 {
		t.Errorf("unthrottled makespan %g (throttled %g) exceeds worst case %g",
			rep.Makespan.Max, rep.ThrottleTime.Max, rep.StaticMakespan)
	}
	// The same replica under the closed-loop toggle controller, the
	// path every DTM request takes: throttling stretches the tasks it
	// slows, so the run throttles and finishes later.
	dtmResp, err := testEngine(t).Run(context.Background(), Request{Flow: FlowSimulate,
		Benchmark: "Bm1", Policy: "thermal",
		Simulate: &SimulateSpec{Controller: "toggle", MinFactor: 0.8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := dtmResp.Simulate; rep.ThrottleTime.Max == 0 || rep.Makespan.Max <= resp.Simulate.Makespan.Max {
		t.Errorf("toggle run throttled %g with makespan %g, want throttling past the unthrottled makespan %g",
			rep.ThrottleTime.Max, rep.Makespan.Max, resp.Simulate.Makespan.Max)
	}
}

func TestFacadeConditionalGraph(t *testing.T) {
	sc, err := GenerateScenario(ScenarioSpec{Name: "ctg", Seed: 2,
		Graph: ScenarioGraphParams{Tasks: 12, BranchDensity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Graph
	conditional := false
	for _, e := range g.Edges() {
		conditional = conditional || e.IsConditional()
	}
	if !conditional {
		t.Fatal("no conditional edges generated")
	}
	probs, err := g.ExecutionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 12 {
		t.Errorf("probabilities length %d", len(probs))
	}
	run, err := testEngine(t).Run(context.Background(), Request{Flow: FlowPlatform,
		Graph: GraphSpecOf(g), Policy: "heuristic3"})
	if err != nil {
		t.Fatal(err)
	}
	// TotalPower is the worst-case schedule's energy over the deadline.
	worst := run.Metrics.TotalPower * g.Deadline
	resp, err := testEngine(t).Run(context.Background(), Request{Flow: FlowSimulate,
		Graph: GraphSpecOf(g), Policy: "heuristic3",
		Simulate: &SimulateSpec{Controller: "none", Seed: 1, Conditional: true}})
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.Simulate.MeanEnergy; e > worst+1e-6 {
		t.Errorf("conditional realized energy %g exceeds worst case %g", e, worst)
	}
}
