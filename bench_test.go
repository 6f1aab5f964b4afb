package thermalsched

import (
	"context"
	"fmt"
	"testing"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/experiments"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/power"
	"thermalsched/internal/sched"
	"thermalsched/internal/search"
	"thermalsched/internal/sim"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// The benchmarks below regenerate every evaluation artifact of the
// paper. Each table bench recomputes the full table per iteration and,
// on the first iteration, logs the rows in the paper's layout so
// `go test -bench . -v` doubles as the reproduction harness
// (cmd/tables prints the same tables without the timing).

func newSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := experiments.NewSuite()
	if err != nil {
		b.Fatal(err)
	}
	s.FloorplanGenerations = 10
	return s
}

// BenchmarkTable1CoSynthesis regenerates the co-synthesis half of
// Table 1: baseline and power heuristics 1–3 on customized
// architectures for Bm1–Bm4.
func BenchmarkTable1CoSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		tab, err := s.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
		}
	}
}

// BenchmarkTable1Platform regenerates the platform half of Table 1 only
// (no co-synthesis search), the cheap headline comparison.
func BenchmarkTable1Platform(b *testing.B) {
	s := newSuite(b)
	policies := []sched.Policy{sched.Baseline, sched.MinTaskPower, sched.MinPEPower, sched.MinTaskEnergy}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range s.Graphs {
			for _, p := range policies {
				res, err := cosynth.RunPlatform(context.Background(), g, s.Lib, cosynth.PlatformConfig{Policy: p})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s %-12s totPow=%6.2f maxT=%7.2f avgT=%7.2f",
						g.Name, p, res.Metrics.TotalPower, res.Metrics.MaxTemp, res.Metrics.AvgTemp)
				}
			}
		}
	}
}

// BenchmarkTable2ThermalCoSynthesis regenerates Table 2: power-aware
// (heuristic 3) vs thermal-aware on the customized architecture.
func BenchmarkTable2ThermalCoSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		tab, err := s.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
		}
	}
}

// BenchmarkTable3ThermalPlatform regenerates Table 3: power-aware vs
// thermal-aware on the platform architecture.
func BenchmarkTable3ThermalPlatform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		tab, err := s.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
		}
	}
}

// BenchmarkFigure1Flows exercises the two flows of the paper's Figure 1
// end to end (the figure is a flowchart, so its artifact is the flows
// themselves): Fig. 1a co-synthesis with thermal-aware floorplanning and
// Fig. 1b platform-based design with thermal inquiries.
func BenchmarkFigure1Flows(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm1")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Fig1a_CoSynthesis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cosynth.RunCoSynthesis(context.Background(), g, lib, cosynth.CoSynthConfig{
				Policy: sched.ThermalAware, FloorplanGenerations: 10,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fig1b_Platform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.PlatformConfig{
				Policy: sched.ThermalAware,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFloorplanGAvsSA is ablation A1 (DESIGN.md): the GA
// floorplanner of reference [3] against a simulated-annealing baseline
// on the same thermal objective.
func BenchmarkAblationFloorplanGAvsSA(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	hs := hotspot.DefaultConfig()
	blocks := make([]floorplan.Block, 0, 4)
	powerMap := map[string]float64{}
	for i, spec := range techlib.CoSynthesisSpecs() {
		name := fmt.Sprintf("pe%d", i)
		ti, _ := lib.PETypeIndex(spec.Name)
		blocks = append(blocks, floorplan.Block{
			Name: name, Area: lib.PEType(ti).Area, MinAspect: 0.5, MaxAspect: 2,
		})
		powerMap[name] = 3 + float64(i)*2 // uneven heat, the interesting case
	}
	eval := func(fp *floorplan.Floorplan, pw map[string]float64) (float64, error) {
		m, err := hotspot.NewModel(fp, hs)
		if err != nil {
			return 0, err
		}
		t, err := m.SteadyState(pw)
		if err != nil {
			return 0, err
		}
		return t.Max(), nil
	}
	b.Run("GA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := floorplan.DefaultGAConfig()
			cfg.Generations = 20
			cfg.Eval = eval
			cfg.Power = powerMap
			res, err := floorplan.RunGA(context.Background(), blocks, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("GA: peak %.2f °C, area %.2f mm², %d evals",
					res.PeakTemp, res.Area*1e6, res.Evals)
			}
		}
	})
	b.Run("SA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := floorplan.DefaultSAConfig()
			cfg.Eval = eval
			cfg.Power = powerMap
			res, err := floorplan.RunSA(context.Background(), blocks, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("SA: peak %.2f °C, area %.2f mm², %d evals",
					res.PeakTemp, res.Area*1e6, res.Evals)
			}
		}
	})
}

// BenchmarkAblationTempWeight is ablation A2 (DESIGN.md): the DC
// temperature-weight sweep on Bm2, showing the feasibility/temperature
// trade-off the DC equation's last term controls.
func BenchmarkAblationTempWeight(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm2")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []float64{0, 5, 10, 20, 40} {
		b.Run(fmt.Sprintf("w=%g", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig(sched.ThermalAware)
				cfg.TempWeight = w
				res, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.PlatformConfig{
					Policy: sched.ThermalAware, Sched: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("w=%g: maxT=%.2f avgT=%.2f makespan=%.0f feasible=%v",
						w, res.Metrics.MaxTemp, res.Metrics.AvgTemp,
						res.Metrics.Makespan, res.Metrics.Feasible)
				}
			}
		})
	}
}

// BenchmarkExtensionLeakageLoop is extension A3 (DESIGN.md): the
// temperature-dependent leakage fixed point the paper's introduction
// motivates, applied to the platform's schedule-time power.
func BenchmarkExtensionLeakageLoop(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm1")
	if err != nil {
		b.Fatal(err)
	}
	res, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.PlatformConfig{Policy: sched.MinTaskEnergy})
	if err != nil {
		b.Fatal(err)
	}
	dyn, err := res.Schedule.PEAveragePower(g.Deadline)
	if err != nil {
		b.Fatal(err)
	}
	leak := power.DefaultLeakage()
	solve := func(p []float64) ([]float64, error) {
		t, err := res.Model.SteadyStateVec(p)
		if err != nil {
			return nil, err
		}
		return t.Values(), nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp, err := leak.FixedPoint(dyn, solve, 1e-6, 100)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			noLeak, _ := res.Model.SteadyStateVec(dyn)
			b.Logf("leakage loop: %d iterations, peak %.2f °C (vs %.2f without leakage)",
				fp.Iterations, maxOf(fp.Temps), noLeak.Max())
		}
	}
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// BenchmarkRobustnessSweep runs the randomized power-aware vs
// thermal-aware comparison (EXPERIMENTS.md, robustness study).
func BenchmarkRobustnessSweep(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(context.Background(), lib, 20, 7, cosynth.PlatformConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res)
		}
	}
}

// BenchmarkSimExecute measures the discrete-event executor.
func BenchmarkSimExecute(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm4")
	if err != nil {
		b.Fatal(err)
	}
	run, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.PlatformConfig{Policy: sched.MinTaskEnergy})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(run.Schedule, sim.Options{MinFactor: 0.7, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the substrates.

// BenchmarkHotSpotSteadyState measures the thermal-inquiry fast path:
// one influence-matrix row product per block, zero allocations.
func BenchmarkHotSpotSteadyState(b *testing.B) {
	fp, err := floorplan.Grid("b", 16, 4e-6)
	if err != nil {
		b.Fatal(err)
	}
	m, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, 16)
	for i := range p {
		p[i] = float64(i%4) + 1
	}
	dst := make([]float64, 16)
	if err := m.SteadyStateInto(dst, p); err != nil { // build the influence matrix outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SteadyStateInto(dst, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotSpotSteadyStateDirect is the reference full-solve path
// the fast path replaced; kept so the speedup stays measurable.
func BenchmarkHotSpotSteadyStateDirect(b *testing.B) {
	fp, err := floorplan.Grid("b", 16, 4e-6)
	if err != nil {
		b.Fatal(err)
	}
	m, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, 16)
	for i := range p {
		p[i] = float64(i%4) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyStateDirect(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotSpotModelBuild(b *testing.B) {
	fp, err := floorplan.Grid("b", 16, 4e-6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hotspot.NewModel(fp, hotspot.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotSpotTransientStep(b *testing.B) {
	benchTransientStep(b, 16, hotspot.DefaultConfig())
}

// BenchmarkHotSpotTransientStepGrid measures one backward-Euler step
// on grid floorplans of growing size: the per-step cost follows the
// sparse factor's nonzeros, not the node count squared. The models use
// the sparse steady backend only to keep setup cheap; transients step
// the same way on either backend. -short skips the 1024-block size.
func BenchmarkHotSpotTransientStepGrid(b *testing.B) {
	cfg := hotspot.DefaultConfig()
	cfg.Solver = hotspot.SolverSparse
	for _, blocks := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			if blocks > 256 && testing.Short() {
				b.Skip("1024-block grid skipped under -short")
			}
			benchTransientStep(b, blocks, cfg)
		})
	}
}

func benchTransientStep(b *testing.B, blocks int, cfg hotspot.Config) {
	fp, err := floorplan.Grid("b", blocks, 4e-6)
	if err != nil {
		b.Fatal(err)
	}
	m, err := hotspot.NewModel(fp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := m.NewTransient(0.01)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, blocks)
	for i := range p {
		p[i] = 2
	}
	dst := make([]float64, blocks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.StepVecInto(dst, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerPolicies(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm4")
	if err != nil {
		b.Fatal(err)
	}
	arch, fp, _, oracle, err := cosynth.BuildPlatform(lib, cosynth.DefaultBusTimePerUnit, hotspot.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	_ = fp
	for _, p := range sched.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			cfg := sched.DefaultConfig(p)
			if p == sched.ThermalAware {
				cfg.Oracle = oracle
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.AllocateAndSchedule(context.Background(), g, arch, lib, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFloorplanPack(b *testing.B) {
	blocks := make([]floorplan.Block, 8)
	for i := range blocks {
		blocks[i] = floorplan.Block{
			Name: fmt.Sprintf("b%d", i), Area: 1e-6 * float64(1+i%3),
			MinAspect: 0.5, MaxAspect: 2,
		}
	}
	e := floorplan.InitialExpression(len(blocks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := floorplan.Pack(e, blocks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaskGraphGenerate(b *testing.B) {
	p := taskgraph.GenParams{
		Name: "bench", Tasks: 50, Edges: 70, Deadline: 2000,
		Types: 8, Sources: 1, MaxData: 40, Seed: 7,
	}
	for i := 0; i < b.N; i++ {
		if _, err := taskgraph.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConditionalTaskGraphs exercises the conditional-task-graph
// extension (the Xie & Wolf substrate the paper's ASP builds on):
// worst-case scheduling of a CTG plus Bernoulli branch realization.
func BenchmarkConditionalTaskGraphs(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.Generate(taskgraph.GenParams{
		Name: "ctg", Tasks: 40, Edges: 60, Deadline: 2200,
		Types: taskgraph.NumTaskTypes, Sources: 1, MaxData: 20,
		BranchFraction: 0.5, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	run, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.PlatformConfig{Policy: sched.MinTaskEnergy})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Execute(run.Schedule, sim.Options{
			MinFactor: 0.8, Seed: int64(i), Conditional: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp, err := run.Schedule.ExpectedEnergy()
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("CTG: %d/%d tasks executed, realized energy %.0f, expected %.0f, worst case %.0f",
				res.Executed, g.NumTasks(), res.Energy, exp, run.Schedule.TotalEnergy())
		}
	}
}

// BenchmarkFloorplanGA measures the thermal-objective GA floorplanner —
// every candidate pays a Stockmeyer pack plus a HotSpot model build and
// solve — at serial and parallel settings of the search backbone. The
// result is byte-identical at every P (asserted in
// internal/floorplan/parallel_test.go); only wall-clock changes, from
// the expression-fingerprint memo and the worker pool.
func BenchmarkFloorplanGA(b *testing.B) {
	hs := hotspot.DefaultConfig()
	blocks := make([]floorplan.Block, 6)
	powerMap := map[string]float64{}
	for i := range blocks {
		name := fmt.Sprintf("pe%d", i)
		blocks[i] = floorplan.Block{
			Name: name, Area: 1e-6 * float64(4+2*(i%3)), MinAspect: 0.5, MaxAspect: 2,
		}
		powerMap[name] = 3 + float64(i)*2
	}
	eval := func(fp *floorplan.Floorplan, pw map[string]float64) (float64, error) {
		m, err := hotspot.NewModel(fp, hs)
		if err != nil {
			return 0, err
		}
		t, err := m.SteadyState(pw)
		if err != nil {
			return 0, err
		}
		return t.Max(), nil
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := floorplan.DefaultGAConfig()
				cfg.Generations = 20
				cfg.Parallelism = p
				cfg.Eval = eval
				cfg.Power = powerMap
				res, err := floorplan.RunGA(context.Background(), blocks, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("P=%d: peak %.2f °C, %d evals, %d memo hits",
						p, res.PeakTemp, res.Evals, res.MemoHits)
				}
			}
		})
	}
}

// BenchmarkCoSynthesis measures the full thermal-aware co-synthesis
// flow on Bm1 (the BenchmarkFigure1Flows/Fig1a workload) at serial and
// parallel settings: candidate architectures fan out over the pool and
// each GA floorplanner shares it.
func BenchmarkCoSynthesis(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm1")
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cosynth.RunCoSynthesis(context.Background(), g, lib, cosynth.CoSynthConfig{
					Policy: sched.ThermalAware, FloorplanGenerations: 10, Search: search.NewPool(p),
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("P=%d: %d PEs, %d evals, %d memo hits",
						p, len(res.Arch.PEs), res.SearchEvals, res.SearchMemoHits)
				}
			}
		})
	}
}

// BenchmarkScenarioGenerate measures synthetic-scenario generation —
// the setup cost a campaign pays once per scenario (then amortized via
// the Engine's fingerprint cache).
func BenchmarkScenarioGenerate(b *testing.B) {
	for _, n := range []int{50, 500} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			spec := ScenarioSpec{
				Graph:    ScenarioGraphParams{Tasks: n},
				Platform: ScenarioPlatformParams{PEs: 8, MinSpeed: 0.6, MaxSpeed: 2.0},
			}
			for i := 0; i < b.N; i++ {
				spec.Seed = int64(i)
				if _, err := GenerateScenario(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaign measures a small end-to-end campaign: scenario
// generation, the policy grid on the worker pool, and aggregation.
func BenchmarkCampaign(b *testing.B) {
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	req := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
		Scenarios: 4, Seed: 1, MinTasks: 20, MaxTasks: 40,
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotSpotSteadyStateLarge measures one steady-state thermal
// inquiry on a 256-block platform — the regime the sparse backend
// exists for. The dense path back-substitutes the full factorization
// (O(n²) per inquiry); the sparse path combines the handful of cached
// influence rows the powered blocks touch (O(k·n)), so the gap widens
// with platform size. Rows are warmed outside the timer, matching the
// scheduler's steady state where every powered block has been inquired
// about before.
func BenchmarkHotSpotSteadyStateLarge(b *testing.B) {
	const blocks = 256
	fp, err := floorplan.Grid("b", blocks, 4e-6)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, blocks)
	for i := 0; i < 8; i++ {
		p[i*31] = 3 + float64(i)
	}
	for _, solver := range hotspot.SolverNames() {
		b.Run(solver, func(b *testing.B) {
			cfg := hotspot.DefaultConfig()
			cfg.Solver = solver
			m, err := hotspot.NewModel(fp, cfg)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float64, blocks)
			if err := m.SteadyStateInto(out, p); err != nil { // warm caches
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.SteadyStateInto(out, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStream measures one full online dispatch of the default
// stream workload (48 jobs over a 600-unit horizon on 4 PEs): arrival
// releases, policy placements and the per-DT thermal co-simulation
// steps. The greedy sub-benchmark additionally pays one influence-
// oracle inquiry per (pending job, idle PE) pair — the price of
// thermal foresight over FIFO's head-of-line pop — and is the PR-9
// hot path the nightly baseline gates.
// BenchmarkAdmission measures the thermal supervisor's predictive
// admission path end to end, per surface. The simulate rows run one
// warm-started closed-loop co-simulation of Bm1 per op: toggle is the
// reactive baseline on the shared coloop core, admit pays the one-time
// RiseForecaster setup (each PE block's unit-step self-response sampled
// out to the longest task's WCET) plus per-dispatch forecast lookups
// and embargo bookkeeping on top, so the toggle→admit delta is the
// entire cost of admission control. The stream row dispatches the default
// online workload under the admit policy, where the same queries gate
// every placement attempt.
func BenchmarkAdmission(b *testing.B) {
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, ctrl := range []string{"toggle", "admit"} {
		b.Run("simulate/"+ctrl, func(b *testing.B) {
			req := NewRequest(FlowSimulate,
				WithBenchmark("Bm1"),
				WithSimulate(SimulateSpec{Controller: ctrl, MinFactor: 0.8, WarmStart: true}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	stream := func(name string, spec StreamSpec) {
		b.Run(name, func(b *testing.B) {
			req := NewRequest(FlowStream, WithStream(spec))
			req.Policy = StreamPolicyAdmit
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The default 48-job workload barely denies; the backlog row is the
	// perfbench online workload's shape (16 PEs, bursty arrivals), where
	// admission holds pile up and dominated dispatch before held PEs
	// stopped being re-queried.
	stream("stream/admit", StreamSpec{Seed: 1, MinFactor: 0.8})
	stream("stream/admit-backlog", StreamSpec{Seed: 1, MinFactor: 0.8,
		Arrivals: StreamArrivalParams{Horizon: 600, Sources: 8, Rate: 0.2, BurstMean: 2},
		Platform: ScenarioPlatformParams{PEs: 16}})
}

func BenchmarkStream(b *testing.B) {
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []string{StreamPolicyFIFO, StreamPolicyGreedy} {
		b.Run(policy, func(b *testing.B) {
			req := NewRequest(FlowStream, WithStream(StreamSpec{Seed: 1, MinFactor: 0.8}))
			req.Policy = policy
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
