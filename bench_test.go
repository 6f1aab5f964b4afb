package thermalsched

import (
	"context"
	"fmt"
	"testing"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	rt "thermalsched/internal/runtime"
	"thermalsched/internal/sched"
	"thermalsched/internal/search"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// The benchmarks below regenerate every evaluation artifact of the
// paper. Each table bench regenerates its table through
// Engine.PaperTables on a fresh Engine per iteration (10 GA
// generations inside co-synthesis) and, on the first iteration, logs
// the rows in the paper's layout so `go test -bench . -v` doubles as
// the reproduction harness (cmd/tables prints the same tables without
// the timing).

func benchPaperTable(b *testing.B, table int) {
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine()
		if err != nil {
			b.Fatal(err)
		}
		tabs, err := eng.PaperTables(context.Background(), table, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tabs)
		}
	}
}

// BenchmarkTable1 regenerates Table 1: baseline and power heuristics
// 1–3 for Bm1–Bm4, on customized (co-synthesis) architectures and on
// the platform.
func BenchmarkTable1(b *testing.B) { benchPaperTable(b, 1) }

// BenchmarkTable2ThermalCoSynthesis regenerates Table 2: power-aware
// (heuristic 3) vs thermal-aware on the customized architecture.
func BenchmarkTable2ThermalCoSynthesis(b *testing.B) { benchPaperTable(b, 2) }

// BenchmarkTable3ThermalPlatform regenerates Table 3: power-aware vs
// thermal-aware on the platform architecture.
func BenchmarkTable3ThermalPlatform(b *testing.B) { benchPaperTable(b, 3) }

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
		cfg := cosynth.DefaultCoSynthConfig(sched.ThermalAware)
		cfg.FloorplanGenerations, cfg.Seed = 10, 1
		for i := 0; i < b.N; i++ {
			if _, err := cosynth.RunCoSynthesis(context.Background(), g, lib, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fig1b_Platform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.DefaultPlatformConfig(sched.ThermalAware)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFloorplanGACoSynthesisPEs runs the GA floorplanner of
// reference [3] on the co-synthesis PE blocks under the thermal
// objective (README "Parallel search backbone").
func BenchmarkFloorplanGACoSynthesisPEs(b *testing.B) {
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
		return hotspot.SteadyPeak(fp, hs, pw)
	}
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
}

// BenchmarkAblationTempWeight is the DC temperature-weight sweep on
// Bm2, showing the feasibility/temperature trade-off the DC equation's
// last term controls.
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
				cfg := cosynth.DefaultPlatformConfig(sched.ThermalAware)
				cfg.Sched.TempWeight = w
				res, err := cosynth.RunPlatform(context.Background(), g, lib, cfg)
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

// BenchmarkSimulateUnthrottled measures the schedule executor with no
// supervisor: the realized replay plus the thermal steps it drives.
func BenchmarkSimulateUnthrottled(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm4")
	if err != nil {
		b.Fatal(err)
	}
	run, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.DefaultPlatformConfig(sched.MinTaskEnergy))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rt.Config{DT: 1, TimeScale: 0.1, MinFactor: 0.7, Seed: int64(i)}
		if _, err := rt.Simulate(context.Background(), run.Schedule, run.Model, cfg); err != nil {
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
	if err := m.SteadyStateInto(dst, p); err != nil { // solve the influence columns outside the timer
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
// sparse factor's nonzeros, not the node count squared. -short skips
// the 1024-block size.
func BenchmarkHotSpotTransientStepGrid(b *testing.B) {
	cfg := hotspot.DefaultConfig()
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
	arch, _, _, oracle, err := cosynth.BuildPlatformDesc(lib, techlib.DefaultBusTimePerUnit, hotspot.DefaultConfig(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkConditionalTaskGraphs exercises the conditional-task-graph
// extension (the Xie & Wolf substrate the paper's ASP builds on):
// worst-case scheduling of a CTG plus Bernoulli branch realization.
func BenchmarkConditionalTaskGraphs(b *testing.B) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		b.Fatal(err)
	}
	sc, err := GenerateScenario(ScenarioSpec{Name: "ctg", Seed: 11,
		Graph: ScenarioGraphParams{Tasks: 40, BranchDensity: 0.5}})
	if err != nil {
		b.Fatal(err)
	}
	g := sc.Graph
	run, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.DefaultPlatformConfig(sched.MinTaskEnergy))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rt.Simulate(context.Background(), run.Schedule, run.Model, rt.Config{
			DT: 1, TimeScale: 0.1, MinFactor: 0.8, Seed: int64(i), Conditional: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("CTG: %d/%d tasks executed, realized energy %.0f, worst case %.0f",
				res.Executed, g.NumTasks(), res.Energy, run.Schedule.TotalEnergy())
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
		return hotspot.SteadyPeak(fp, hs, pw)
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := floorplan.DefaultGAConfig()
				cfg.Generations = 20
				cfg.Pool = search.NewPool(p)
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
				cfg := cosynth.DefaultCoSynthConfig(sched.ThermalAware)
				cfg.FloorplanGenerations, cfg.Seed, cfg.Search = 10, 1, search.NewPool(p)
				res, err := cosynth.RunCoSynthesis(context.Background(), g, lib, cfg)
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
	req := Request{Flow: FlowCampaign, Campaign: &CampaignSpec{
		Scenarios: 4, Seed: 1, MinTasks: 20, MaxTasks: 40,
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotSpotSteadyStateLarge measures one steady-state thermal
// inquiry on a 256-block platform, whose model factors under the
// min-degree order. It combines the handful of cached influence
// columns the powered blocks touch (O(k·n)). Columns are warmed outside
// the timer, matching the scheduler's steady state where every powered
// block has been inquired about before.
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
	m, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
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
}

// BenchmarkAdmission measures the thermal supervisor's predictive
// admission path end to end, per surface. The simulate rows run one
// warm-started closed-loop co-simulation of Bm1 per op: toggle is the
// reactive baseline on the shared coloop core, admit pays the
// admission gate's one-time rise-forecast setup (each PE block's
// unit-step self-response sampled out to the longest task's WCET) plus
// per-dispatch forecast lookups and hold checks on top, so the
// toggle→admit delta is the entire cost of admission control. The
// stream rows dispatch online workloads under the admit policy, where
// the same gate refuses or admits every placement attempt.
func BenchmarkAdmission(b *testing.B) {
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, ctrl := range []string{"toggle", "admit"} {
		b.Run("simulate/"+ctrl, func(b *testing.B) {
			req := Request{Flow: FlowSimulate,
				Benchmark: "Bm1",
				Simulate:  &SimulateSpec{Controller: ctrl, MinFactor: 0.8, WarmStart: true}}
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
			req := Request{Flow: FlowStream, Stream: &spec, Policy: StreamPolicyAdmit}
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

// BenchmarkStream measures one full online dispatch of the default
// stream workload (48 jobs over a 600-unit horizon on 4 PEs): arrival
// releases, policy placements and the per-DT thermal co-simulation
// steps. The greedy sub-benchmark additionally pays one influence-
// oracle inquiry per (pending job, idle PE) pair — the price of
// thermal foresight over FIFO's head-of-line pop — and is the
// dispatch hot path the nightly baseline gates.
func BenchmarkStream(b *testing.B) {
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []string{StreamPolicyFIFO, StreamPolicyGreedy} {
		b.Run(policy, func(b *testing.B) {
			req := Request{Flow: FlowStream, Stream: &StreamSpec{Seed: 1, MinFactor: 0.8}, Policy: policy}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
