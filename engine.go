package thermalsched

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	"thermalsched/internal/experiments"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	rt "thermalsched/internal/runtime"
	"thermalsched/internal/search"
	"thermalsched/internal/sim"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// Engine is the primary entry point of the package: construct one with
// NewEngine, keep it for the life of the process, and feed it Requests.
// It owns the technology library, the parsed paper benchmarks, and a
// bounded cache of thermal-model factorizations keyed by floorplan and
// configuration, so repeated runs skip rebuilding models they have
// already factored. An Engine is safe for concurrent use.
type Engine struct {
	lib     *Library
	thermal ThermalConfig
	workers int
	// models is a bounded LRU of thermal models keyed by floorplan
	// geometry and configuration. Models are safe for concurrent
	// read-only use, so one cached instance can serve many RunBatch
	// workers at once; a hit reuses not only the Cholesky factorization
	// but also the model's lazily-built influence matrix — the
	// steady-state fast path every thermal inquiry rides — so repeated
	// thermal flows over one floorplan pay for both exactly once.
	models *search.LRU[*hotspot.Model]
	// scenarios memoizes generated synthetic scenarios by fingerprint,
	// so a campaign's policies share one generation per scenario;
	// streams does the same for generated online workloads. Cached
	// values are immutable (scheduling never mutates its input graph
	// and libraries are read-only), so one instance serves concurrent
	// workers.
	scenarios *search.LRU[*Scenario]
	streams   *search.LRU[*StreamWorkload]
	benches   map[string]*Graph
	ordered   []string // benchmark names in paper order
	// simTokens is the engine-wide parallelism pool for simulate-flow
	// replica fan-out; see runSimulateFlow.
	simTokens chan struct{}
	// search is the engine-wide parallel search backbone
	// (WithSearchParallelism): one token pool shared by every
	// co-synthesis run's candidate fan-out and GA floorplanner, so
	// search parallelism composes with the RunBatch worker pool without
	// oversubscription — acquisition is non-blocking and saturated jobs
	// run inline on their worker.
	search *search.Pool
	// searchEvals/searchMemoHits aggregate the floorplanner's memo
	// accounting across every co-synthesis run; see SearchMemoStats.
	searchEvals    atomic.Uint64
	searchMemoHits atomic.Uint64
}

// Option configures an Engine under construction; see NewEngine.
type Option func(*engineOptions)

type engineOptions struct {
	lib       *Library
	thermal   ThermalConfig
	workers   int
	cacheSize int
	searchPar int
}

// DefaultModelCacheSize bounds the Engine's thermal-model cache. A
// platform flow needs one entry; a co-synthesis run touches a few
// hundred candidate floorplans, most visited repeatedly by the GA.
const DefaultModelCacheSize = 512

// WithLibrary substitutes a custom technology library for the standard
// one.
func WithLibrary(lib *Library) Option {
	return func(o *engineOptions) { o.lib = lib }
}

// WithThermalConfig substitutes the thermal-model calibration used for
// every flow the Engine runs.
func WithThermalConfig(cfg ThermalConfig) Option {
	return func(o *engineOptions) { o.thermal = cfg }
}

// WithSolverBackend selects the steady-state thermal solver backend for
// every flow the Engine runs: one of hotspot.SolverNames (dense, the
// golden reference and the default; or sparse). Equivalent to setting
// ThermalConfig.Solver through WithThermalConfig, and overridable per
// run via Request.Solver.
func WithSolverBackend(name string) Option {
	return func(o *engineOptions) { o.thermal.Solver = name }
}

// WithWorkers bounds RunBatch's worker pool (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(o *engineOptions) { o.workers = n }
}

// WithModelCacheSize bounds the thermal-model factorization cache; zero
// disables caching entirely.
func WithModelCacheSize(n int) Option {
	return func(o *engineOptions) { o.cacheSize = n }
}

// WithSearchParallelism bounds the engine's parallel search backbone:
// the concurrent candidate evaluations of the co-synthesis architecture
// loops and the GA floorplanner inside them (default: GOMAXPROCS; 1
// runs every search serially, the historical behavior). Candidates are
// always generated serially from the seeded RNG and merged in
// submission order, so results are byte-identical at every setting —
// parallelism only changes wall-clock. Requests can override the value
// per run via Request.Parallelism.
func WithSearchParallelism(n int) Option {
	return func(o *engineOptions) { o.searchPar = n }
}

// NewEngine builds an Engine: it loads (or accepts) the technology
// library, parses the paper benchmarks once, and prepares the thermal
// model cache.
func NewEngine(opts ...Option) (*Engine, error) {
	o := engineOptions{
		thermal:   hotspot.DefaultConfig(),
		workers:   runtime.GOMAXPROCS(0),
		cacheSize: DefaultModelCacheSize,
		searchPar: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 1 {
		return nil, fmt.Errorf("thermalsched: engine needs at least 1 worker, got %d", o.workers)
	}
	if o.searchPar < 1 {
		return nil, fmt.Errorf("thermalsched: engine needs search parallelism of at least 1, got %d", o.searchPar)
	}
	if o.cacheSize < 0 {
		return nil, fmt.Errorf("thermalsched: negative model cache size %d", o.cacheSize)
	}
	if err := o.thermal.Validate(); err != nil {
		return nil, err
	}
	lib := o.lib
	if lib == nil {
		std, err := techlib.StandardLibrary()
		if err != nil {
			return nil, err
		}
		lib = std
	} else if err := lib.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		lib:       lib,
		thermal:   o.thermal,
		workers:   o.workers,
		models:    search.NewLRU[*hotspot.Model](o.cacheSize),
		scenarios: search.NewLRU[*Scenario](DefaultScenarioCacheSize),
		streams:   search.NewLRU[*StreamWorkload](DefaultScenarioCacheSize),
		benches:   make(map[string]*Graph),
		simTokens: make(chan struct{}, o.workers),
		search:    search.NewPool(o.searchPar),
	}
	for _, name := range taskgraph.BenchmarkNames() {
		g, err := taskgraph.Benchmark(name)
		if err != nil {
			return nil, err
		}
		e.benches[name] = g
		e.ordered = append(e.ordered, name)
	}
	return e, nil
}

// Library returns the engine's technology library.
func (e *Engine) Library() *Library { return e.lib }

// thermalFor resolves the thermal configuration for one request: the
// engine's calibration, with the request's Solver override applied when
// it differs. The common cases (no override, or an override naming the
// engine's own backend) return the engine's shared config pointer so
// every flow keys the model cache identically.
func (e *Engine) thermalFor(req *Request) *ThermalConfig {
	if req.Solver == "" || req.Solver == e.thermal.Solver {
		return &e.thermal
	}
	hs := e.thermal
	hs.Solver = req.Solver
	return &hs
}

// Benchmark returns a copy of the engine's pre-parsed paper benchmark.
// The copy is the caller's to mutate; the engine's cached graph stays
// pristine for subsequent runs.
func (e *Engine) Benchmark(name string) (*Graph, error) {
	g, err := e.benchmark(name)
	if err != nil {
		return nil, err
	}
	return g.Clone(), nil
}

// benchmark returns the shared parsed graph. Internal callers only
// read it (scheduling never mutates the input graph).
func (e *Engine) benchmark(name string) (*Graph, error) {
	if g, ok := e.benches[name]; ok {
		return g, nil
	}
	return nil, fmt.Errorf("thermalsched: unknown benchmark %q (want one of %s)",
		name, strings.Join(e.ordered, ", "))
}

// resolveGraph materializes the request's input graph.
func (e *Engine) resolveGraph(req *Request) (*Graph, error) {
	if req.Graph != nil {
		return req.Graph.Graph()
	}
	return e.benchmark(req.Benchmark)
}

// runInput is a resolved request input: the task graph plus the
// library and platform substrate it runs on. Benchmark and inline-graph
// requests use the engine's standard library and the paper platform;
// scenario requests bring their own generated library and platform.
type runInput struct {
	graph    *Graph
	lib      *Library
	platform *cosynth.PlatformDesc // nil = the paper's 4-PE platform
	scen     *Scenario             // non-nil when generated
}

// resolveInput materializes the request's graph, library and platform.
func (e *Engine) resolveInput(req *Request) (*runInput, error) {
	if req.Scenario != nil {
		sc, err := e.scenarioFor(*req.Scenario)
		if err != nil {
			return nil, err
		}
		return &runInput{
			graph:    sc.Graph,
			lib:      sc.Lib,
			platform: &cosynth.PlatformDesc{TypeNames: sc.PETypeNames, Layout: sc.Layout},
			scen:     sc,
		}, nil
	}
	g, err := e.resolveGraph(req)
	if err != nil {
		return nil, err
	}
	return &runInput{graph: g, lib: e.lib}, nil
}

// Run validates and executes one request. Cancellation is threaded into
// every flow's hot loop — the ASP's greedy step, the GA floorplanner's
// packing evaluations and co-synthesis's candidate evaluations — so a
// cancelled context aborts promptly with an error wrapping ctx.Err().
func (e *Engine) Run(ctx context.Context, req Request) (*Response, error) {
	//thermalvet:allow walltime(elapsedMs is an observability stamp, documented as excluded from the byte-identity contract)
	start := time.Now()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Dispatch through the flow registry — the same table Validate,
	// FlowKinds() and the CLI help read, so a flow exists on every
	// surface or none.
	fs, ok := flowFor(req.Flow)
	if !ok { // unreachable after Validate
		return nil, fmt.Errorf("thermalsched: unknown flow %q", req.Flow)
	}
	resp, err := fs.run(e, ctx, &req)
	if err != nil {
		return nil, err
	}
	//thermalvet:allow walltime(elapsedMs is an observability stamp, documented as excluded from the byte-identity contract)
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}

// RunBatch fans requests out across a bounded worker pool (WithWorkers)
// and returns one response per request, in order. Individual failures
// are reported in Response.Error rather than failing the batch; the
// returned error is non-nil only when ctx is cancelled, in which case
// unfinished entries carry the cancellation error.
func (e *Engine) RunBatch(ctx context.Context, reqs []Request) ([]*Response, error) {
	out := make([]*Response, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	workers := e.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				resp, err := e.Run(ctx, reqs[i])
				if err != nil {
					resp = &Response{Flow: reqs[i].Flow, Error: err.Error()}
				}
				out[i] = resp
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i, r := range out {
			if r == nil {
				out[i] = &Response{Flow: reqs[i].Flow, Error: err.Error()}
			}
		}
		return out, err
	}
	return out, nil
}

// Platform runs the platform-based flow (Fig. 1b) on a task graph and
// returns the full result — schedule, floorplan, thermal model and
// metrics. It is the typed counterpart of Run with FlowPlatform for
// callers who need more than the serializable Response.
func (e *Engine) Platform(ctx context.Context, g *Graph, opts ...RequestOption) (*FlowResult, error) {
	req := NewRequest(FlowPlatform, opts...)
	cfg, err := req.platformConfig()
	if err != nil {
		return nil, err
	}
	cfg.HotSpot = e.thermalFor(&req)
	return e.platform(ctx, g, e.lib, cfg)
}

// CoSynthesize runs the co-synthesis flow (Fig. 1a) on a task graph and
// returns the full result. It is the typed counterpart of Run with
// FlowCoSynthesis.
func (e *Engine) CoSynthesize(ctx context.Context, g *Graph, opts ...RequestOption) (*FlowResult, error) {
	req := NewRequest(FlowCoSynthesis, opts...)
	cfg, err := req.cosynthConfig()
	if err != nil {
		return nil, err
	}
	cfg.HotSpot = e.thermalFor(&req)
	return e.cosynthesize(ctx, g, e.lib, cfg)
}

// Sweep runs the randomized power-aware vs thermal-aware study with
// the engine's thermal calibration and model cache applied to every
// platform run.
func (e *Engine) Sweep(ctx context.Context, count int, seed int64) (*SweepResult, error) {
	return e.sweep(ctx, count, seed, &e.thermal)
}

// sweep is the request-aware body of Sweep: hs carries the thermal
// calibration (possibly a per-request solver override from thermalFor).
func (e *Engine) sweep(ctx context.Context, count int, seed int64, hs *ThermalConfig) (*SweepResult, error) {
	return experiments.RunSweep(ctx, e.lib, count, seed, cosynth.PlatformConfig{
		HotSpot: hs,
		Models:  e.modelProvider(),
	})
}

// ScalingTable runs the beyond-the-paper scaling study — the
// thermal-aware platform flow over generated scenarios of the given
// task counts on a generated heterogeneous platform — with the engine's
// thermal calibration and model cache applied to every run. Nil sizes
// means experiments.DefaultScalingSizes (20 → 500 tasks); zero pes
// means 8.
func (e *Engine) ScalingTable(ctx context.Context, sizes []int, pes int, seed int64) (*experiments.ScalingTable, error) {
	return experiments.RunScalingTable(ctx, sizes, pes, seed, cosynth.PlatformConfig{
		HotSpot: &e.thermal,
		Models:  e.modelProvider(),
	}, e.ModelCacheStats)
}

// platform executes the platform flow with the engine's thermal model
// cache wired in. lib is explicit because generated scenarios bring
// their own library.
func (e *Engine) platform(ctx context.Context, g *Graph, lib *Library, cfg cosynth.PlatformConfig) (*FlowResult, error) {
	if cfg.Models == nil {
		cfg.Models = e.modelProvider()
	}
	return cosynth.RunPlatform(ctx, g, lib, cfg)
}

// cosynthesize executes the co-synthesis flow with the engine's thermal
// model cache and parallel search backbone wired in. A request-level
// Parallelism (cfg.Parallelism > 0) builds its own bounded pool;
// otherwise the engine-wide shared pool applies, so concurrent RunBatch
// workers draw search parallelism from one budget.
func (e *Engine) cosynthesize(ctx context.Context, g *Graph, lib *Library, cfg cosynth.CoSynthConfig) (*FlowResult, error) {
	if cfg.Models == nil {
		cfg.Models = e.modelProvider()
	}
	if cfg.Search == nil && cfg.Parallelism == 0 {
		cfg.Search = e.search
	}
	res, err := cosynth.RunCoSynthesis(ctx, g, lib, cfg)
	if err != nil {
		return nil, err
	}
	e.searchEvals.Add(uint64(res.SearchEvals))
	e.searchMemoHits.Add(uint64(res.SearchMemoHits))
	return res, nil
}

func (e *Engine) runPlatformFlow(ctx context.Context, req *Request) (*Response, error) {
	in, err := e.resolveInput(req)
	if err != nil {
		return nil, err
	}
	cfg, err := req.platformConfig()
	if err != nil {
		return nil, err
	}
	cfg.HotSpot = e.thermalFor(req)
	cfg.Platform = in.platform
	res, err := e.platform(ctx, in.graph, in.lib, cfg)
	if err != nil {
		return nil, err
	}
	resp, err := flowResponse(FlowPlatform, cfg.Policy, res, req.IncludeGantt, false)
	if err != nil {
		return nil, err
	}
	in.stamp(resp)
	return resp, nil
}

func (e *Engine) runCoSynthFlow(ctx context.Context, req *Request) (*Response, error) {
	in, err := e.resolveInput(req)
	if err != nil {
		return nil, err
	}
	cfg, err := req.cosynthConfig()
	if err != nil {
		return nil, err
	}
	cfg.HotSpot = e.thermalFor(req)
	if in.scen != nil && cfg.CandidateTypes == nil {
		// A generated scenario brings its own library; co-synthesis
		// selects from its PE palette rather than the standard one.
		cfg.CandidateTypes = in.scen.PETypeNames
	}
	res, err := e.cosynthesize(ctx, in.graph, in.lib, cfg)
	if err != nil {
		return nil, err
	}
	resp, err := flowResponse(FlowCoSynthesis, cfg.Policy, res, req.IncludeGantt, true)
	if err != nil {
		return nil, err
	}
	in.stamp(resp)
	return resp, nil
}

// stamp records the generated scenario's fingerprint on a response so
// clients can key caches and reproduce the run.
func (in *runInput) stamp(resp *Response) {
	if in.scen != nil {
		resp.Fingerprint = in.scen.Fingerprint
	}
}

func (e *Engine) runSweepFlow(ctx context.Context, req *Request) (*Response, error) {
	count := req.SweepCount
	if count == 0 {
		count = 4
	}
	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	res, err := e.sweep(ctx, count, seed, e.thermalFor(req))
	if err != nil {
		return nil, err
	}
	return &Response{Flow: FlowSweep, Sweep: res}, nil
}

func (e *Engine) runDTMFlow(ctx context.Context, req *Request) (*Response, error) {
	in, err := e.resolveInput(req)
	if err != nil {
		return nil, err
	}
	cfg, err := req.platformConfig()
	if err != nil {
		return nil, err
	}
	cfg.HotSpot = e.thermalFor(req)
	cfg.Platform = in.platform
	res, err := e.platform(ctx, in.graph, in.lib, cfg)
	if err != nil {
		return nil, err
	}
	spec := req.DTM.withDefaults()
	var ctrl DTMController
	switch spec.Controller {
	case "toggle":
		ctrl, err = dtm.NewToggleController(spec.TriggerC, spec.Hysteresis, spec.Throttle)
	case "pi":
		ctrl, err = dtm.NewPIController(spec.SetpointC, spec.Kp, spec.Ki, spec.MinScale)
	default: // unreachable after Validate
		err = fmt.Errorf("thermalsched: unknown DTM controller %q", spec.Controller)
	}
	if err != nil {
		return nil, err
	}
	exec, err := sim.Execute(res.Schedule, sim.Options{MinFactor: spec.MinFactor, Seed: spec.SimSeed})
	if err != nil {
		return nil, err
	}
	trace, err := exec.Trace(spec.SampleDT)
	if err != nil {
		return nil, err
	}
	pass, err := trace.Reorder(res.Model.BlockNames())
	if err != nil {
		return nil, err
	}
	samples := make([][]float64, 0, len(pass)*spec.Passes)
	for i := 0; i < spec.Passes; i++ {
		samples = append(samples, pass...)
	}
	dtmRes, err := dtm.Run(res.Model, ctrl, samples, spec.SampleDT*spec.TimeScale)
	if err != nil {
		return nil, err
	}
	resp, err := flowResponse(FlowDTM, cfg.Policy, res, req.IncludeGantt, false)
	if err != nil {
		return nil, err
	}
	resp.DTM = dtmReport(spec.Controller, dtmRes)
	in.stamp(resp)
	return resp, nil
}

// simSupervisor materializes a fresh thermal supervisor for the spec.
// Each replica gets its own instance: supervisors carry per-run state
// (throttle latches, PI integrals, admission holds, cooling gaps) and
// are not safe for concurrent use. The reactive controllers (toggle,
// pi) adapt to the supervisor contract behind the spec's ladder shim;
// admit and zigzag are proactive and gate dispatches through Admit.
func simSupervisor(spec SimulateSpec) (ThermalSupervisor, error) {
	ladder := spec.ladder()
	switch spec.Controller {
	case "toggle":
		c, err := dtm.NewToggleController(spec.TriggerC, spec.Hysteresis, spec.Throttle)
		if err != nil {
			return nil, err
		}
		return dtm.Supervise(c, ladder)
	case "pi":
		c, err := dtm.NewPIController(spec.SetpointC, spec.Kp, spec.Ki, spec.MinScale)
		if err != nil {
			return nil, err
		}
		return dtm.Supervise(c, ladder)
	case "admit":
		return dtm.NewAdmitController(ladder, spec.SeriousScale, spec.CriticalScale, spec.RetryAfter, spec.Hysteresis)
	case "zigzag":
		// A true idle gap (CoolScale 0), one supervisor step per DT.
		return dtm.NewZigZagController(ladder, spec.CoolTime, spec.DT, 0)
	case "none":
		return nil, nil
	default: // unreachable after Validate
		return nil, fmt.Errorf("thermalsched: unknown simulate controller %q", spec.Controller)
	}
}

// runSimulateFlow schedules on the platform, then co-simulates the
// schedule, the transient thermal model and the DTM controller in
// lockstep — Replicas seeded Monte-Carlo runs fanned across the
// engine's worker pool (replica i draws its realization from Seed+i).
func (e *Engine) runSimulateFlow(ctx context.Context, req *Request) (*Response, error) {
	in, err := e.resolveInput(req)
	if err != nil {
		return nil, err
	}
	cfg, err := req.platformConfig()
	if err != nil {
		return nil, err
	}
	cfg.HotSpot = e.thermalFor(req)
	cfg.Platform = in.platform
	res, err := e.platform(ctx, in.graph, in.lib, cfg)
	if err != nil {
		return nil, err
	}
	spec := req.Simulate.withDefaults()

	results := make([]*rt.Result, spec.Replicas)
	errs := make([]error, spec.Replicas)
	runReplica := func(i int) {
		sup, err := simSupervisor(spec)
		if err != nil {
			errs[i] = err
			return
		}
		rcfg := rt.Config{
			DT:         spec.DT,
			TimeScale:  spec.TimeScale,
			Supervisor: sup,
			WarmStart:  spec.WarmStart,
			Exec: sim.Options{
				MinFactor:   spec.MinFactor,
				Seed:        spec.Seed + int64(i),
				Conditional: spec.Conditional,
			},
		}
		results[i], errs[i] = rt.Simulate(ctx, res.Schedule, res.Model, rcfg)
	}
	// Replica fan-out draws extra parallelism from the engine-wide token
	// pool (shared with every concurrently running simulate flow, sized
	// to the worker count): when a token is free the replica runs on its
	// own goroutine, otherwise it runs inline here. This keeps the total
	// number of concurrent co-simulations bounded by the pool size even
	// when RunBatch workers each hit this path at once — a per-request
	// pool would multiply up to workers² goroutines. A request-level
	// Parallelism narrows this run to its own pool of P−1 tokens plus
	// the inline slot (P=1 is fully serial); either way results are
	// byte-identical — only wall-clock changes.
	tokens := e.simTokens
	if req.Parallelism > 0 {
		tokens = make(chan struct{}, req.Parallelism-1)
	}
	var wg sync.WaitGroup
	for i := 0; i < spec.Replicas; i++ {
		if ctx.Err() != nil {
			break
		}
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-tokens }()
				runReplica(i)
			}(i)
		default:
			runReplica(i)
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	makespans := make([]float64, spec.Replicas)
	peaks := make([]float64, spec.Replicas)
	throttles := make([]float64, spec.Replicas)
	misses, steps, energy, denials := 0, 0, 0.0, 0
	for i, r := range results {
		makespans[i] = r.Makespan
		peaks[i] = r.PeakTempC
		throttles[i] = r.ThrottleTime
		if !r.DeadlineMet {
			misses++
		}
		steps += r.Steps
		energy += r.Energy
		denials += r.AdmissionDenials
	}
	n := float64(spec.Replicas)
	report := &SimulateReport{
		Controller:           spec.Controller,
		Replicas:             spec.Replicas,
		StaticMakespan:       res.Schedule.Makespan,
		Deadline:             res.Schedule.Graph.Deadline,
		Makespan:             statsOf(makespans),
		PeakTempC:            statsOf(peaks),
		ThrottleTime:         statsOf(throttles),
		DeadlineMissRate:     float64(misses) / n,
		MeanSteps:            float64(steps) / n,
		MeanEnergy:           energy / n,
		MeanAdmissionDenials: float64(denials) / n,
	}
	resp, err := flowResponse(FlowSimulate, cfg.Policy, res, req.IncludeGantt, false)
	if err != nil {
		return nil, err
	}
	resp.Simulate = report
	in.stamp(resp)
	return resp, nil
}

// modelProvider returns the cosynth-layer hook backed by the engine's
// factorization cache.
func (e *Engine) modelProvider() cosynth.ModelProvider {
	if e.models.Cap() == 0 {
		return nil // caching disabled; cosynth falls back to hotspot.NewModel
	}
	return func(fp *floorplan.Floorplan, cfg hotspot.Config) (*hotspot.Model, error) {
		key := modelKey(fp, cfg)
		if m, ok := e.models.Get(key); ok {
			return m, nil
		}
		m, err := hotspot.NewModel(fp, cfg)
		if err != nil {
			return nil, err
		}
		e.models.Put(key, m)
		return m, nil
	}
}

// ModelCacheStats reports the thermal-model cache's hit/miss counters
// and current size, for observability and tests.
func (e *Engine) ModelCacheStats() (hits, misses uint64, size int) {
	return e.models.Stats()
}

// SearchMemoStats reports the floorplanner's expression-fingerprint
// memo accounting aggregated over every co-synthesis run the engine has
// executed: evals counts packings actually evaluated, memoHits the
// candidates answered from a memo instead — the search-side counterpart
// of ScenarioCacheStats.
func (e *Engine) SearchMemoStats() (evals, memoHits uint64) {
	return e.searchEvals.Load(), e.searchMemoHits.Load()
}

// modelKey fingerprints a (floorplan, thermal config) pair. Floorplans
// are keyed by exact block geometry, so two floorplans solve to the
// same factorization iff they are the same layout. The Config fields
// are serialized explicitly, field by field — a reflective "%+v" would
// silently produce colliding (pointer addresses) or unstable keys if
// Config ever gained pointer or slice fields. The thermalvet fpfields
// analyzer checks the registration below statically: a Config field
// missing from this serialization fails the lint job by name.
//
//thermalvet:serializes hotspot.Config
func modelKey(fp *floorplan.Floorplan, cfg hotspot.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "si=%g,die=%g,sivh=%g,iface=%g,spk=%g,spt=%g,spvh=%g,sps=%g,ring=%g,conv=%g,sinkc=%g,amb=%g,",
		cfg.SiliconConductivity, cfg.DieThickness, cfg.SiliconVolumetricHeat,
		cfg.InterfaceResistivity, cfg.SpreaderConductivity, cfg.SpreaderThickness,
		cfg.SpreaderVolumetricHeat, cfg.SpreaderToSinkResistance, cfg.SpreaderRingWidth,
		cfg.ConvectionResistance, cfg.SinkHeatCapacity, cfg.AmbientC)
	// The solver backend is part of the key: a cached model carries its
	// backend-specific factorization and influence representation, so a
	// dense and a sparse run over one floorplan must never share an
	// entry. "" normalizes to "dense" (SolverKind) so the default and
	// the explicit spelling do share one.
	slv := cfg.Solver
	if slv == "" {
		slv = hotspot.SolverDense
	}
	fmt.Fprintf(&b, "slv=%s|", slv)
	for _, blk := range fp.Blocks() {
		fmt.Fprintf(&b, "%s:%g,%g,%g,%g;", blk.Name, blk.Rect.X, blk.Rect.Y, blk.Rect.W, blk.Rect.H)
	}
	return b.String()
}
