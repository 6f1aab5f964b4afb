package thermalsched

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	rt "thermalsched/internal/runtime"
	"thermalsched/internal/search"
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
	// but also the model's lazily solved influence columns — the
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
	// search is the engine-wide token pool (WithSearchParallelism):
	// one pool shared by every co-synthesis run's candidate fan-out and
	// GA floorplanner and by the simulate and stream flows' replica
	// fan-out, so request parallelism composes with the RunBatch worker
	// pool without oversubscription — acquisition is non-blocking and
	// saturated jobs run inline on their worker. See poolFor.
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
// platform flow needs one entry; a co-synthesis run adds the final
// floorplan of each candidate architecture it schedules (the GA's
// candidate plans bypass the cache).
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
// loops and the GA floorplanner inside them, and the concurrent
// Monte-Carlo replicas of the simulate and stream flows (default:
// GOMAXPROCS; 1 runs every search and replica serially). Candidates
// and replicas are always generated serially from their seeds and
// merged in submission order, so results are byte-identical at every
// setting — parallelism only changes wall-clock. Requests can override
// the value per run via Request.Parallelism.
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

// Benchmark returns a copy of the engine's pre-parsed paper benchmark.
// The copy shares the cached graph's immutable tasks and index; its
// Name and Deadline are the caller's to change.
func (e *Engine) Benchmark(name string) (*Graph, error) {
	g, err := e.benchmark(name)
	if err != nil {
		return nil, err
	}
	c := *g
	return &c, nil
}

// benchmark returns the shared parsed graph, which every run only reads.
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
	// The flow reads the canonical form, the one Validate checks and
	// Fingerprint digests.
	c := req.canonical()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Dispatch through the flow registry — the same table Validate,
	// FlowKinds() and the CLI help read, so a flow exists on every
	// surface or none.
	fs, _ := flowFor(c.Flow)
	resp, err := fs.run(e, ctx, &c)
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

// platform executes the platform flow on a resolved input, with the
// engine's thermal calibration and model cache wired in. A caller that
// sets cfg.Models (the scaling study's counting provider) keeps it.
func (e *Engine) platform(ctx context.Context, in *runInput, cfg cosynth.PlatformConfig) (*cosynth.Result, error) {
	cfg.HotSpot = e.thermal
	cfg.Platform = in.platform
	if cfg.Models == nil {
		cfg.Models = e.modelProvider()
	}
	return cosynth.RunPlatform(ctx, in.graph, in.lib, cfg)
}

// poolFor returns the token pool a request fans out on: a pool of its
// own when the request sets Parallelism, otherwise the engine-wide
// pool, so concurrent RunBatch workers draw parallelism from one
// budget.
func (e *Engine) poolFor(req *Request) *search.Pool {
	if req.Parallelism > 0 {
		return search.NewPool(req.Parallelism)
	}
	return e.search
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
	res, err := e.platform(ctx, in, cfg)
	if err != nil {
		return nil, err
	}
	resp, err := flowResponse(FlowPlatform, cfg.Sched.Policy, res, req.IncludeGantt, false)
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
	for _, name := range cfg.CandidateTypes {
		if _, ok := in.lib.PETypeIndex(name); !ok {
			return nil, fieldErr("candidateTypes", "candidate PE type %q not in the input's library", name)
		}
	}
	cfg.HotSpot = e.thermal
	cfg.Search = e.poolFor(req)
	if in.scen != nil && cfg.CandidateTypes == nil {
		// A generated scenario brings its own library; co-synthesis
		// selects from its PE palette rather than the standard one.
		cfg.CandidateTypes = in.scen.PETypeNames
	}
	cfg.Models = e.modelProvider()
	res, err := cosynth.RunCoSynthesis(ctx, in.graph, in.lib, cfg)
	if err != nil {
		return nil, err
	}
	e.searchEvals.Add(uint64(res.SearchEvals))
	e.searchMemoHits.Add(uint64(res.SearchMemoHits))
	resp, err := flowResponse(FlowCoSynthesis, cfg.Sched.Policy, res, req.IncludeGantt, true)
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

// simSupervisor materializes a fresh thermal controller for the spec,
// or nil for "none". Each replica gets its own instance: controllers
// carry per-run state (throttle latches, PI integrals, admission holds,
// cooling gaps) and are not safe for concurrent use. Toggle and PI are
// plain reactive controllers; admit and zigzag are dtm.Supervisors,
// whose Admit the executor's gate consults before every start.
func simSupervisor(spec SimulateSpec) (dtm.Controller, error) {
	switch spec.Controller {
	case "toggle":
		return dtm.NewToggleController(spec.TriggerC, spec.Hysteresis, spec.Throttle)
	case "pi":
		return dtm.NewPIController(spec.SetpointC, spec.Kp, spec.Ki, spec.MinScale)
	case "admit", "zigzag":
		return spec.supervisor(spec.Controller, spec.DT)
	case "none":
		return nil, nil
	}
	// unreachable after Validate
	return nil, fmt.Errorf("thermalsched: unknown simulate controller %q", spec.Controller)
}

// runReplicas runs n seeded Monte-Carlo replicas on pool. Replica i
// lands in slot i, so every aggregate over the result, computed in
// index order, is byte-identical at every parallelism level. Each
// replica checks ctx before it starts, and a cancelled ctx is reported
// ahead of any replica error.
func runReplicas[R any](ctx context.Context, pool *search.Pool, n int, run func(i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	err := pool.Map(n, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		out[i], err = run(i)
		return err
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runSimulateFlow schedules on the platform, then co-simulates the
// schedule, the transient thermal model and the DTM controller in
// lockstep — Replicas seeded Monte-Carlo runs fanned across poolFor's
// token pool (replica i draws its realization from Seed+i).
func (e *Engine) runSimulateFlow(ctx context.Context, req *Request) (*Response, error) {
	in, err := e.resolveInput(req)
	if err != nil {
		return nil, err
	}
	cfg, err := req.platformConfig()
	if err != nil {
		return nil, err
	}
	res, err := e.platform(ctx, in, cfg)
	if err != nil {
		return nil, err
	}
	spec := *req.Simulate

	results, err := runReplicas(ctx, e.poolFor(req), spec.Replicas, func(i int) (*rt.Result, error) {
		sup, err := simSupervisor(spec)
		if err != nil {
			return nil, err
		}
		return rt.Simulate(ctx, res.Schedule, res.Model, rt.Config{
			DT:          spec.DT,
			TimeScale:   spec.TimeScale,
			Supervisor:  sup,
			WarmStart:   spec.WarmStart,
			MinFactor:   spec.MinFactor,
			Seed:        spec.Seed + int64(i),
			Conditional: spec.Conditional,
		})
	})
	if err != nil {
		return nil, err
	}

	report := &SimulateReport{
		Controller:     spec.Controller,
		Replicas:       spec.Replicas,
		StaticMakespan: res.Schedule.Makespan,
		Deadline:       res.Schedule.Graph.Deadline,
		Makespan:       replicaStats(results, func(r *rt.Result) float64 { return r.Makespan }),
		PeakTempC:      replicaStats(results, func(r *rt.Result) float64 { return r.PeakTempC }),
		ThrottleTime:   replicaStats(results, func(r *rt.Result) float64 { return r.ThrottleTime }),
		DeadlineMissRate: replicaMean(results, func(r *rt.Result) float64 {
			if r.DeadlineMet {
				return 0
			}
			return 1
		}),
		MeanSteps:            replicaMean(results, func(r *rt.Result) float64 { return float64(r.Steps) }),
		MeanEnergy:           replicaMean(results, func(r *rt.Result) float64 { return r.Energy }),
		MeanAdmissionDenials: replicaMean(results, func(r *rt.Result) float64 { return float64(r.AdmissionDenials) }),
	}
	resp, err := flowResponse(FlowSimulate, cfg.Sched.Policy, res, req.IncludeGantt, false)
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
	return e.countingModelProvider(nil, nil)
}

// countingModelProvider is modelProvider that also adds each of its
// cache hits and misses to the given counters, when they are non-nil.
func (e *Engine) countingModelProvider(hits, misses *atomic.Uint64) cosynth.ModelProvider {
	if e.models.Cap() == 0 {
		return nil // caching disabled; cosynth falls back to hotspot.NewModel
	}
	return func(fp *floorplan.Floorplan, cfg hotspot.Config) (*hotspot.Model, error) {
		key := modelKey(fp, cfg)
		if m, ok := e.models.Get(key); ok {
			if hits != nil {
				hits.Add(1)
			}
			return m, nil
		}
		if misses != nil {
			misses.Add(1)
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
// same factorization iff they are the same layout. The key is raw
// bytes: every float as its IEEE-754 bits, every string behind its
// length, so distinct inputs cannot concatenate to one key. The Config
// fields are serialized explicitly, field by field — a reflective dump
// would silently produce colliding (pointer addresses) or unstable
// keys if Config ever gained pointer or slice fields. The thermalvet
// fpfields analyzer checks the registration below statically: a
// Config field missing from this serialization fails the lint job by
// name.
//
//thermalvet:serializes hotspot.Config
func modelKey(fp *floorplan.Floorplan, cfg hotspot.Config) string {
	blocks := fp.Blocks()
	// 12 Config floats, then per block a name and four floats. The
	// steady factor's elimination order is a function of the block
	// count, so the floorplan already keys it.
	b := make([]byte, 0, 128+48*len(blocks))
	for _, v := range [...]float64{
		cfg.SiliconConductivity, cfg.DieThickness, cfg.SiliconVolumetricHeat,
		cfg.InterfaceResistivity, cfg.SpreaderConductivity, cfg.SpreaderThickness,
		cfg.SpreaderVolumetricHeat, cfg.SpreaderToSinkResistance, cfg.SpreaderRingWidth,
		cfg.ConvectionResistance, cfg.SinkHeatCapacity, cfg.AmbientC,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, blk := range blocks {
		b = appendKeyString(b, blk.Name)
		for _, v := range [...]float64{blk.Rect.X, blk.Rect.Y, blk.Rect.W, blk.Rect.H} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return string(b)
}

// appendKeyString appends s to a modelKey behind its length.
func appendKeyString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
