// Package thermalsched reproduces "Thermal-Aware Task Allocation and
// Scheduling for Embedded Systems" (Hung, Xie, Vijaykrishnan, Kandemir,
// Irwin — DATE 2005): a list-scheduling Allocation and Scheduling
// Procedure (ASP) whose dynamic criticality folds in either power
// heuristics or the average temperature reported by a HotSpot-style
// compact thermal model, embedded in both a platform-based design flow
// and a hardware/software co-synthesis flow with a thermal-aware
// genetic-algorithm floorplanner.
//
// The primary API is the Engine: construct one with NewEngine, keep it
// for the life of the process, and feed it JSON-serializable Requests.
// The Engine owns the technology library, the parsed paper benchmarks
// and a cache of thermal-model factorizations, threads context
// cancellation into every hot loop, and fans batches out across a
// bounded worker pool:
//
//	eng, _ := thermalsched.NewEngine()
//	resp, _ := eng.Run(ctx, thermalsched.NewRequest(
//		thermalsched.FlowPlatform,
//		thermalsched.WithBenchmark("Bm1"),
//		thermalsched.WithPolicy(thermalsched.ThermalAware),
//	))
//	fmt.Printf("peak %.1f °C\n", resp.Metrics.MaxTemp)
//
// Engine.Platform, Engine.CoSynthesize and Engine.Sweep are the typed
// counterparts returning full results (schedule, floorplan, thermal
// model), and cmd/thermschedd serves Engine.Run over HTTP/JSON.
//
// Beyond the paper's four benchmarks, the generate and campaign flows
// run the same machinery on synthetic workloads: seeded random task
// graphs on generated heterogeneous platforms (ScenarioSpec), singly
// or fanned out as a policy-comparison campaign (CampaignSpec).
//
// This package is the public facade over the implementation packages:
//
//	internal/taskgraph   task graphs, TGFF-like generator, paper benchmarks
//	internal/techlib     technology library (WCET/WCPC tables, PE types)
//	internal/scenario    synthetic scenarios: seeded graph + platform generators
//	internal/sched       the ASP: policies Baseline, H1–H3, ThermalAware
//	internal/floorplan   slicing-tree GA/SA floorplanner, platform layouts
//	internal/linalg      dense/sparse Cholesky, sparse backward-Euler stepper
//	internal/hotspot     compact thermal RC model (steady state, transient)
//	internal/power       power profiles, traces, leakage feedback
//	internal/cosynth     the two flows of the paper's Figure 1
//	internal/experiments Tables 1–3, the sweep, DTM and scaling studies
//	internal/sim         discrete-event replay with actual execution times
//	internal/dtm         thermal supervisors: toggle, PI, admit, zig-zag
//	internal/coloop      closed-loop co-simulation core, rise forecaster
//	internal/runtime     the simulate flow's schedule/thermal/DTM loop
//	internal/stream      online dispatcher and placement policies
//	internal/search      deterministic parallel search pool and LRU memo
//	internal/service     request validation/routing for cmd/thermschedd
//	internal/jobs        async job tier: coalescing, journal, eviction
package thermalsched

import (
	"context"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	"thermalsched/internal/experiments"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/power"
	"thermalsched/internal/sched"
	"thermalsched/internal/sim"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// Task graph types and constructors.
type (
	// Graph is a task graph with a completion deadline.
	Graph = taskgraph.Graph
	// Task is one node of a task graph.
	Task = taskgraph.Task
	// GraphEdge is a data dependency between two tasks.
	GraphEdge = taskgraph.Edge
	// GenParams parameterizes the TGFF-like task-graph generator.
	GenParams = taskgraph.GenParams
)

// NewGraph returns an empty task graph.
func NewGraph(name string, deadline float64) *Graph { return taskgraph.NewGraph(name, deadline) }

// GenerateGraph builds a random task graph with exact task/edge counts.
func GenerateGraph(p GenParams) (*Graph, error) { return taskgraph.Generate(p) }

// Benchmark returns one of the paper's benchmarks ("Bm1" … "Bm4").
func Benchmark(name string) (*Graph, error) { return taskgraph.Benchmark(name) }

// Benchmarks returns all four paper benchmarks.
func Benchmarks() ([]*Graph, error) { return taskgraph.Benchmarks() }

// Technology library types and constructors.
type (
	// Library stores WCET/WCPC per (task type, PE type) plus PE costs
	// and areas.
	Library = techlib.Library
	// PEType describes a processing-element type.
	PEType = techlib.PEType
	// LibraryEntry is a WCET/WCPC pair.
	LibraryEntry = techlib.Entry
)

// StandardLibrary returns the deterministic technology library the
// reproduction's experiments share.
func StandardLibrary() (*Library, error) { return techlib.StandardLibrary() }

// Scheduler types.
type (
	// Architecture is a set of PE instances plus the bus model.
	Architecture = sched.Architecture
	// PE is one processing element instance.
	PE = sched.PE
	// Schedule is a complete task mapping and timing.
	Schedule = sched.Schedule
	// Policy selects the ASP variant.
	Policy = sched.Policy
	// SchedConfig tunes the ASP.
	SchedConfig = sched.Config
)

// ASP policy constants (paper §2).
const (
	Baseline      = sched.Baseline
	MinTaskPower  = sched.MinTaskPower  // heuristic 1
	MinPEPower    = sched.MinPEPower    // heuristic 2
	MinTaskEnergy = sched.MinTaskEnergy // heuristic 3
	ThermalAware  = sched.ThermalAware
)

// ParsePolicy converts a policy name ("baseline", "h1" … "thermal").
func ParsePolicy(s string) (Policy, error) { return sched.ParsePolicy(s) }

// Policies lists all ASP variants in paper order.
func Policies() []Policy { return sched.Policies() }

// AllocateAndSchedule runs the ASP directly on an explicit architecture.
// Most callers want Engine.Run or Engine.Platform instead.
func AllocateAndSchedule(g *Graph, arch Architecture, lib *Library, cfg SchedConfig) (*Schedule, error) {
	return sched.AllocateAndSchedule(context.Background(), g, arch, lib, cfg)
}

// AllocateAndScheduleCtx is AllocateAndSchedule with cancellation
// threaded into the ASP's greedy loop.
func AllocateAndScheduleCtx(ctx context.Context, g *Graph, arch Architecture, lib *Library, cfg SchedConfig) (*Schedule, error) {
	return sched.AllocateAndSchedule(ctx, g, arch, lib, cfg)
}

// Thermal model types.
type (
	// ThermalConfig holds the physical parameters of the thermal model.
	ThermalConfig = hotspot.Config
	// ThermalModel is a compact thermal RC network built from a floorplan.
	ThermalModel = hotspot.Model
	// Temps holds per-block temperatures.
	Temps = hotspot.Temps
	// Floorplan is a set of placed, named blocks.
	Floorplan = floorplan.Floorplan
	// FloorplanBlock is an unplaced block for the floorplanner.
	FloorplanBlock = floorplan.Block
)

// DefaultThermalConfig returns the reproduction's thermal calibration.
func DefaultThermalConfig() ThermalConfig { return hotspot.DefaultConfig() }

// NewThermalModel builds the thermal network for a floorplan.
func NewThermalModel(fp *Floorplan, cfg ThermalConfig) (*ThermalModel, error) {
	return hotspot.NewModel(fp, cfg)
}

// FloorplanGA runs the thermal-aware genetic-algorithm floorplanner.
func FloorplanGA(blocks []FloorplanBlock, cfg floorplan.GAConfig) (*floorplan.Result, error) {
	return floorplan.RunGA(context.Background(), blocks, cfg)
}

// DefaultGAConfig returns the floorplanner's default GA parameters.
func DefaultGAConfig() floorplan.GAConfig { return floorplan.DefaultGAConfig() }

// Flow types (paper Figure 1).
type (
	// FlowResult is the outcome of a platform or co-synthesis run.
	FlowResult = cosynth.Result
	// FlowMetrics are the three columns of the paper's tables.
	FlowMetrics = cosynth.Metrics
	// PlatformConfig parameterizes the platform-based flow (Fig. 1b).
	PlatformConfig = cosynth.PlatformConfig
	// CoSynthConfig parameterizes the co-synthesis flow (Fig. 1a).
	CoSynthConfig = cosynth.CoSynthConfig
)

// Power-domain types.
type (
	// PowerProfile is the per-PE power timeline of a schedule.
	PowerProfile = power.Profile
	// LeakageModel captures temperature-dependent leakage.
	LeakageModel = power.LeakageModel
)

// PowerProfileOf extracts the power profile of a schedule.
func PowerProfileOf(s *Schedule) (*PowerProfile, error) { return power.FromSchedule(s) }

// DefaultLeakage returns the calibrated leakage model.
func DefaultLeakage() LeakageModel { return power.DefaultLeakage() }

// Run-time extensions: discrete-event execution and dynamic thermal
// management (the paper's reference [2]). The controllers and
// supervisors built here run closed-loop in the simulate and stream
// flows, where throttling stretches the tasks it slows.
type (
	// SimOptions controls the discrete-event schedule executor.
	SimOptions = sim.Options
	// SimResult is a realized execution of a schedule.
	SimResult = sim.Result
	// DTMController throttles PE power based on observed temperatures.
	DTMController = dtm.Controller
	// ThermalSupervisor is the widened thermal-management contract: a
	// DTMController that also classifies block temperatures into
	// graduated thermal states and answers admission queries.
	ThermalSupervisor = dtm.Supervisor
	// ThermalState is one rung of the supervisor's temperature ladder
	// (nominal, fair, serious, critical).
	ThermalState = dtm.ThermalState
	// Ladder holds the ascending fair/serious/critical thresholds that
	// split the temperature axis into the four thermal states.
	Ladder = dtm.Ladder
)

// SuperviseDTM adapts a reactive DTM controller to the supervisor
// contract: scaling works as before and every admission is granted.
func SuperviseDTM(c DTMController, l Ladder) (ThermalSupervisor, error) {
	return dtm.Supervise(c, l)
}

// NewAdmitDTM returns the predictive admission-control supervisor:
// starts forecast to push a block to the serious state are refused for
// retryAfter time units, with graduated throttling as a safety net.
// State demotions carry hysteresis °C of stickiness, matching the
// reactive toggle's trip-and-release shape.
func NewAdmitDTM(l Ladder, seriousScale, criticalScale, retryAfter, hysteresis float64) (ThermalSupervisor, error) {
	return dtm.NewAdmitController(l, seriousScale, criticalScale, retryAfter, hysteresis)
}

// NewZigZagDTM returns the idle-slack cooling supervisor (Chrobak et
// al., arXiv 0801.4238): a block reaching serious is forced through a
// coolTime-long gap at coolScale power, refusing new starts meanwhile.
func NewZigZagDTM(l Ladder, coolTime, stepTime, coolScale float64) (ThermalSupervisor, error) {
	return dtm.NewZigZagController(l, coolTime, stepTime, coolScale)
}

// ExecuteSchedule replays a schedule with actual (≤ WCET) execution
// times and reports the realized timing and energy.
func ExecuteSchedule(s *Schedule, opt SimOptions) (*SimResult, error) {
	return sim.Execute(s, opt)
}

// NewToggleDTM returns a threshold/hysteresis throttling controller.
func NewToggleDTM(triggerC, hysteresis, throttle float64) (DTMController, error) {
	return dtm.NewToggleController(triggerC, hysteresis, throttle)
}

// NewPIDTM returns a proportional–integral thermal controller
// (reference [2]'s control-theoretic DTM).
func NewPIDTM(setpointC, kp, ki, minScale float64) (DTMController, error) {
	return dtm.NewPIController(setpointC, kp, ki, minScale)
}

// Experiment suite (Tables 1–3).
type (
	// Suite bundles the benchmarks and library for table regeneration.
	Suite = experiments.Suite
	// Table1 is the power-heuristic comparison.
	Table1 = experiments.Table1
	// VersusTable is the power-aware vs thermal-aware comparison
	// (Tables 2 and 3).
	VersusTable = experiments.VersusTable
)

// NewSuite builds the standard experiment suite.
func NewSuite() (*Suite, error) { return experiments.NewSuite() }

// SweepResult aggregates the randomized robustness study.
type SweepResult = experiments.SweepResult

// Scaling-study types (Engine.ScalingTable, cmd/tables -scaling).
type (
	// ScalingTable is the beyond-the-paper scaling study: the
	// thermal-aware flow over generated scenarios of growing task
	// counts.
	ScalingTable = experiments.ScalingTable
	// ScalingRow is one task-count point of the scaling study.
	ScalingRow = experiments.ScalingRow
)
