// Package thermalsched reproduces "Thermal-Aware Task Allocation and
// Scheduling for Embedded Systems" (Hung, Xie, Vijaykrishnan, Kandemir,
// Irwin — DATE 2005): a list-scheduling Allocation and Scheduling
// Procedure (ASP) whose dynamic criticality folds in either power
// heuristics or the average temperature reported by a HotSpot-style
// compact thermal model, embedded in both a platform-based design flow
// and a hardware/software co-synthesis flow with a thermal-aware
// genetic algorithm (GA) floorplanner.
//
// The primary API is the Engine: construct one with NewEngine, keep it
// for the life of the process, and feed it JSON-serializable Requests.
// The Engine owns the technology library, the parsed paper benchmarks
// and a cache of thermal-model factorizations, threads context
// cancellation into every hot loop, and fans batches out across a
// bounded worker pool:
//
//	eng, _ := thermalsched.NewEngine()
//	resp, _ := eng.Run(ctx, thermalsched.Request{
//		Flow:      thermalsched.FlowPlatform,
//		Benchmark: "Bm1",
//		Policy:    "thermal",
//	})
//	fmt.Printf("peak %.1f °C\n", resp.Metrics.MaxTemp)
//
// Run and RunBatch are the one entry path to every flow: a Response
// carries the paper's metrics (Metrics), the architecture, per-PE
// operating points and, on request, the floorplan and Gantt chart.
// Engine.PaperTables regenerates the paper's Tables 1–3 as one batch of
// such requests, and cmd/thermschedd serves Engine.Run over HTTP/JSON.
// Callers that need a Schedule value itself call AllocateAndSchedule on
// an explicit architecture.
//
// Beyond the paper's four benchmarks, the generate and campaign flows
// run the same machinery on synthetic workloads: seeded random task
// graphs on generated heterogeneous platforms (ScenarioSpec), singly
// or fanned out as a policy-comparison campaign (CampaignSpec).
//
// This package is the public facade over the implementation packages:
//
//	internal/taskgraph   task graphs, .tg/DOT I/O, paper benchmarks (.tg data)
//	internal/techlib     technology library (WCET/WCPC tables, PE types)
//	internal/scenario    synthetic scenarios: seeded graph + platform generators
//	internal/sched       the ASP: policies Baseline, H1–H3, ThermalAware
//	internal/floorplan   slicing-tree GA floorplanner, platform layouts
//	internal/linalg      sparse Cholesky, sparse backward-Euler stepper
//	internal/hotspot     compact thermal RC model (steady state, transient)
//	internal/cosynth     the two flows of the paper's Figure 1
//	internal/dtm         thermal supervisors: toggle, PI, admit, zig-zag
//	internal/coloop      closed-loop co-simulation core, rise forecaster
//	internal/runtime     the schedule executor: realized replay under DTM
//	internal/stream      online dispatcher and placement policies
//	internal/search      deterministic parallel search pool and LRU memo
//	internal/service     request validation/routing for cmd/thermschedd
//	internal/jobs        async job tier: coalescing, journal, eviction
package thermalsched

import (
	"context"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/search"
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
)

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

// AllocateAndSchedule runs the ASP directly on an explicit
// architecture, with cancellation threaded into its greedy loop. Most
// callers want Engine.Run instead.
func AllocateAndSchedule(ctx context.Context, g *Graph, arch Architecture, lib *Library, cfg SchedConfig) (*Schedule, error) {
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

// SteadyPeak returns the hottest block's steady-state temperature of
// a floorplan under a per-block power map (watts): the value of
// NewThermalModel(fp, cfg) then SteadyState(power).Max(), bit for bit,
// without keeping a model. It is the GA floorplanner's thermal
// Evaluator.
func SteadyPeak(fp *Floorplan, cfg ThermalConfig, power map[string]float64) (float64, error) {
	return hotspot.SteadyPeak(fp, cfg, power)
}

// FloorplanGA runs the thermal-aware GA floorplanner.
// Set cfg.Pool (NewSearchPool) to evaluate candidates concurrently;
// the result is byte-identical for every pool size.
func FloorplanGA(blocks []FloorplanBlock, cfg floorplan.GAConfig) (*floorplan.Result, error) {
	return floorplan.RunGA(context.Background(), blocks, cfg)
}

// SearchPool is a bounded token pool for the parallel searches; a nil
// pool runs serially.
type SearchPool = search.Pool

// NewSearchPool sizes a pool for n concurrent evaluations, counting
// the caller's goroutine; n ≤ 1 returns the serial (nil) pool.
func NewSearchPool(n int) *SearchPool { return search.NewPool(n) }

// DefaultGAConfig returns the floorplanner's default GA parameters.
func DefaultGAConfig() floorplan.GAConfig { return floorplan.DefaultGAConfig() }

// FlowMetrics are the three columns of the paper's tables, plus
// makespan, feasibility and cost (Response.Metrics).
type FlowMetrics = cosynth.Metrics
