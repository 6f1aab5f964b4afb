package thermalsched

import (
	"errors"
	"strings"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
)

// FlowKind names one of the Engine's execution flows.
type FlowKind string

// The flows an Engine can run.
const (
	// FlowPlatform is the platform-based design flow (paper Fig. 1b):
	// schedule on the fixed 4-PE platform.
	FlowPlatform FlowKind = "platform"
	// FlowCoSynthesis is the co-synthesis flow (paper Fig. 1a):
	// deadline-driven architecture selection with floorplanning and
	// thermal extraction in the loop.
	FlowCoSynthesis FlowKind = "cosynthesis"
	// FlowSweep is the randomized robustness study: power-aware vs
	// thermal-aware over many generated graphs.
	FlowSweep FlowKind = "sweep"
	// FlowSimulate schedules on the platform and then co-simulates the
	// schedule, the transient thermal model and a DTM controller in
	// lockstep (closed loop): throttling stretches the affected tasks,
	// feeding back into makespan, deadline misses and subsequent power.
	// With Replicas > 1 it fans seeded Monte-Carlo runs across the
	// engine's search pool and reports percentile statistics.
	FlowSimulate FlowKind = "simulate"
	// FlowGenerate materializes a synthetic scenario (random task graph
	// plus heterogeneous platform) from Request.Scenario and returns
	// its serialized form and summary statistics — the scenario is not
	// scheduled. Any graph-consuming flow can instead carry the same
	// spec to run on the generated workload directly.
	FlowGenerate FlowKind = "generate"
	// FlowCampaign generates a family of scenarios (Request.Campaign)
	// and fans a policy comparison across them on the engine's worker
	// pool, reporting per-scenario rows, per-policy percentiles and
	// win rates — the randomized-sweep study generalized to arbitrary
	// scenario families and policy sets.
	FlowCampaign FlowKind = "campaign"
	// FlowStream generates a seeded online workload (Request.Stream):
	// periodic sources plus a Poisson/bursty aperiodic process, released
	// over simulated time against the live transient thermal model. An
	// online policy (Request.Policy: fifo, random, coolest, greedy)
	// places each job with past knowledge only; the report includes the
	// deadline-miss rate, the thermal envelope, and the
	// price-of-onlineness ratio against a clairvoyant offline bound.
	FlowStream FlowKind = "stream"
)

// TaskSpec is the serializable form of one task-graph node.
type TaskSpec struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Type int    `json:"type"`
}

// EdgeSpec is the serializable form of one task-graph dependency.
type EdgeSpec struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Data float64 `json:"data,omitempty"`
	Prob float64 `json:"prob,omitempty"`
}

// GraphSpec is the JSON-serializable form of a task graph, used to ship
// custom graphs through Request. Use GraphSpecOf/Graph to convert.
type GraphSpec struct {
	Name     string     `json:"name"`
	Deadline float64    `json:"deadline"`
	Tasks    []TaskSpec `json:"tasks"`
	Edges    []EdgeSpec `json:"edges,omitempty"`
}

// GraphSpecOf converts a task graph to its serializable form.
func GraphSpecOf(g *Graph) *GraphSpec {
	spec := &GraphSpec{Name: g.Name, Deadline: g.Deadline}
	for _, t := range g.Tasks() {
		spec.Tasks = append(spec.Tasks, TaskSpec{ID: t.ID, Name: t.Name, Type: t.Type})
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, EdgeSpec{From: e.From, To: e.To, Data: e.Data, Prob: e.Prob})
	}
	return spec
}

// Graph materializes and validates the task graph described by the spec.
func (s *GraphSpec) Graph() (*Graph, error) {
	g := taskgraph.NewGraph(s.Name, s.Deadline)
	for _, t := range s.Tasks {
		if err := g.AddTask(taskgraph.Task{ID: t.ID, Name: t.Name, Type: t.Type}); err != nil {
			return nil, err
		}
	}
	for _, e := range s.Edges {
		if err := g.AddEdge(taskgraph.Edge{From: e.From, To: e.To, Data: e.Data, Prob: e.Prob}); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// SupervisorSpec holds the thermal-supervisor knobs the simulate and
// stream flows share. Both specs embed it without a JSON tag, so its
// keys sit flat beside theirs. The zero value uses the documented
// defaults.
type SupervisorSpec struct {
	// FairC, SeriousC and CriticalC are the supervisor's thermal-state
	// ladder — the ascending thresholds splitting temperatures into
	// nominal/fair/serious/critical. Defaults: 72/80/88 °C (serious at
	// the simulate flow's default toggle trigger). Every simulate
	// controller classifies on the ladder; the admit and zigzag
	// supervisors additionally deny admissions from it.
	FairC     float64 `json:"fairC,omitempty"`
	SeriousC  float64 `json:"seriousC,omitempty"`
	CriticalC float64 `json:"criticalC,omitempty"`
	// SeriousScale and CriticalScale are the admit supervisor's
	// graduated safety-net throttle factors for blocks that reach the
	// corresponding state despite admission control (defaults 0.7,
	// 0.4). Stream jobs are non-preemptive and run at nominal speed, so
	// on that flow the factors only shape the supervisor's state
	// bookkeeping — admission denial is how it acts on the dispatcher.
	SeriousScale  float64 `json:"seriousScale,omitempty"`
	CriticalScale float64 `json:"criticalScale,omitempty"`
	// RetryAfter is the admit supervisor's admission-hold length in
	// schedule time units: a denied PE refuses further starts for this
	// long before the forecast is consulted again (default 2).
	RetryAfter float64 `json:"retryAfter,omitempty"`
	// Hysteresis is the state-demotion margin in °C (default 2): a
	// block leaves a thermal state only after cooling that far below
	// the state's entry threshold. The simulate flow's toggle
	// controller un-throttles that far below its trigger.
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// CoolTime is the zigzag supervisor's forced cooling-gap length in
	// schedule time units (default 5), rounded up to whole DT steps.
	CoolTime float64 `json:"coolTime,omitempty"`
}

func (s SupervisorSpec) withDefaults() SupervisorSpec {
	if s.FairC == 0 {
		s.FairC = 72
	}
	if s.SeriousC == 0 {
		s.SeriousC = 80
	}
	if s.CriticalC == 0 {
		s.CriticalC = 88
	}
	if s.SeriousScale == 0 {
		s.SeriousScale = 0.7
	}
	if s.CriticalScale == 0 {
		s.CriticalScale = 0.4
	}
	if s.RetryAfter == 0 {
		s.RetryAfter = 2
	}
	if s.Hysteresis == 0 {
		s.Hysteresis = 2
	}
	if s.CoolTime == 0 {
		s.CoolTime = 5
	}
	return s
}

// ladder lowers the spec's thermal-state thresholds. Call on a
// withDefaults() copy.
func (s SupervisorSpec) ladder() Ladder {
	return Ladder{FairC: s.FairC, SeriousC: s.SeriousC, CriticalC: s.CriticalC}
}

// validate checks the knob ranges; prefix is the JSON path of the
// embedding spec ("simulate", "stream" or their campaign forms). Call on a withDefaults() copy so zero (defaulted) knobs
// are already resolved.
func (s SupervisorSpec) validate(prefix string) error {
	if s.Hysteresis < 0 {
		return fieldErr(prefix+".hysteresis", "negative hysteresis %g", s.Hysteresis)
	}
	if !(s.FairC < s.SeriousC && s.SeriousC < s.CriticalC) {
		return fieldErr(prefix+".fairC", "thermal-state ladder must ascend (fair %g, serious %g, critical %g)",
			s.FairC, s.SeriousC, s.CriticalC)
	}
	if s.SeriousScale < 0 || s.SeriousScale > 1 || s.CriticalScale < 0 || s.CriticalScale > 1 {
		return fieldErr(prefix+".seriousScale", "admission scales (serious %g, critical %g) out of [0, 1]",
			s.SeriousScale, s.CriticalScale)
	}
	if !(s.RetryAfter > 0) {
		return fieldErr(prefix+".retryAfter", "admission RetryAfter %g must be positive", s.RetryAfter)
	}
	if !(s.CoolTime > 0) {
		return fieldErr(prefix+".coolTime", "zig-zag CoolTime %g must be positive", s.CoolTime)
	}
	return nil
}

// supervisor materializes a fresh admit or zigzag supervisor, or nil
// for any other kind; dt is the loop step the zigzag gap rounds up to.
// Each replica gets its own instance: supervisors carry per-run state
// (admission holds, cooling gaps) and are not safe for concurrent use.
// Call on a withDefaults() copy.
func (s SupervisorSpec) supervisor(kind string, dt float64) (ThermalSupervisor, error) {
	switch kind {
	case "admit":
		return dtm.NewAdmitController(s.ladder(), s.SeriousScale, s.CriticalScale, s.RetryAfter, s.Hysteresis)
	case "zigzag":
		// A true idle gap (CoolScale 0), one supervisor step per DT.
		return dtm.NewZigZagController(s.ladder(), s.CoolTime, dt, 0)
	}
	return nil, nil
}

// SimulateSpec parameterizes the FlowSimulate closed-loop co-simulation.
// The zero value uses the documented defaults.
type SimulateSpec struct {
	// Controller selects the thermal supervisor: "toggle" (default) and
	// "pi" are the reactive controllers; "admit" is predictive admission
	// control (task starts are refused when the influence-forecast rise
	// would push the PE's block to the serious state, with graduated
	// throttling as a safety net); "zigzag" forces fixed idle cooling
	// gaps on blocks that reach serious (Chrobak et al., arXiv
	// 0801.4238); "none" disables thermal management — the unthrottled
	// reference run.
	Controller string `json:"controller,omitempty"`
	// TriggerC and Throttle parameterize the toggle controller, with
	// SupervisorSpec.Hysteresis as its band. Defaults: 80 °C trigger,
	// 0.5 throttle — the trigger sits just below the paper benchmarks'
	// steady-state peaks, so a thermally unbalanced schedule throttles
	// visibly.
	TriggerC float64 `json:"triggerC,omitempty"`
	Throttle float64 `json:"throttle,omitempty"`
	// SetpointC, Kp, Ki and MinScale parameterize the PI controller.
	// Defaults: 80 °C setpoint, Kp 0.05, Ki 0.002, MinScale 0.1.
	SetpointC float64 `json:"setpointC,omitempty"`
	Kp        float64 `json:"kp,omitempty"`
	Ki        float64 `json:"ki,omitempty"`
	MinScale  float64 `json:"minScale,omitempty"`
	// SupervisorSpec holds the ladder, admit and zigzag knobs.
	SupervisorSpec
	// DT is the co-simulation step in schedule time units (default 1);
	// TimeScale converts one schedule time unit to seconds of transient
	// simulation (default 0.1).
	DT        float64 `json:"dt,omitempty"`
	TimeScale float64 `json:"timeScale,omitempty"`
	// MinFactor is the executor's execution-time factor lower bound in
	// (0, 1] (default 1: replay the worst case); Seed drives the
	// per-task factors and branch draws of replica 0 (replica i uses
	// Seed + i).
	MinFactor float64 `json:"minFactor,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Conditional enables conditional-task-graph execution: branches
	// fire with their annotated probabilities and skipped tasks draw no
	// power.
	Conditional bool `json:"conditional,omitempty"`
	// WarmStart initializes the thermal state at the schedule's
	// steady-state operating point instead of cold ambient.
	WarmStart bool `json:"warmStart,omitempty"`
	// Replicas is the number of seeded Monte-Carlo runs to fan across
	// the engine's search pool (default 1, at most
	// MaxSimulateReplicas).
	Replicas int `json:"replicas,omitempty"`
}

// MaxSimulateReplicas caps SimulateSpec.Replicas (and
// StreamSpec.Replicas): each replica is a full co-simulation with its
// own transient state, so an unbounded count would let a single
// service request monopolize the process.
const MaxSimulateReplicas = 4096

func (s *SimulateSpec) withDefaults() SimulateSpec {
	out := SimulateSpec{}
	if s != nil {
		out = *s
	}
	if out.Controller == "" {
		out.Controller = "toggle"
	}
	if out.TriggerC == 0 {
		out.TriggerC = 80
	}
	if out.Throttle == 0 {
		out.Throttle = 0.5
	}
	if out.SetpointC == 0 {
		out.SetpointC = 80
	}
	if out.Kp == 0 {
		out.Kp = 0.05
	}
	if out.Ki == 0 {
		out.Ki = 0.002
	}
	if out.MinScale == 0 {
		out.MinScale = 0.1
	}
	out.SupervisorSpec = out.SupervisorSpec.withDefaults()
	if out.DT == 0 {
		out.DT = 1
	}
	if out.TimeScale == 0 {
		out.TimeScale = 0.1
	}
	if out.MinFactor == 0 {
		out.MinFactor = 1
	}
	if out.Replicas == 0 {
		out.Replicas = 1
	}
	return out
}

// Request is one JSON-serializable unit of work for an Engine. Build it
// literally, decode it from JSON, or assemble it with NewRequest and the
// With* functional options. Zero-valued knobs mean "use the calibrated
// default"; pointer-typed knobs distinguish "unset" from an explicit
// zero (which is why Seed is a *int64 — an explicit zero seed is valid).
type Request struct {
	// Flow selects the execution flow.
	Flow FlowKind `json:"flow"`
	// Benchmark names a paper benchmark ("Bm1" … "Bm4"). Exactly one of
	// Benchmark, Graph or Scenario must be set, except for FlowSweep
	// and FlowCampaign which generate their own inputs.
	Benchmark string `json:"benchmark,omitempty"`
	// Graph carries a custom task graph inline.
	Graph *GraphSpec `json:"graph,omitempty"`
	// Scenario describes a synthetic workload to generate and run: the
	// graph-consuming flows schedule it on its own generated platform
	// (instead of the paper's 4-PE substrate), and FlowGenerate
	// serializes it. Generated scenarios are cached by fingerprint.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Policy is the ASP variant name as accepted by ParsePolicy
	// ("baseline", "h1" … "h3", "thermal"). Empty means "thermal".
	Policy string `json:"policy,omitempty"`

	// BusTimePerUnit overrides the shared-bus communication rate; zero
	// means the experiments' default.
	BusTimePerUnit float64 `json:"busTimePerUnit,omitempty"`
	// TempWeight, PowerWeight, EnergyWeight and ThermalHorizon override
	// the corresponding scheduler calibration knobs; nil keeps the
	// calibrated defaults.
	TempWeight     *float64 `json:"tempWeight,omitempty"`
	PowerWeight    *float64 `json:"powerWeight,omitempty"`
	EnergyWeight   *float64 `json:"energyWeight,omitempty"`
	ThermalHorizon *float64 `json:"thermalHorizon,omitempty"`

	// MaxPEs, CandidateTypes and FloorplanGenerations tune FlowCoSynthesis.
	MaxPEs               int      `json:"maxPEs,omitempty"`
	CandidateTypes       []string `json:"candidateTypes,omitempty"`
	FloorplanGenerations int      `json:"floorplanGenerations,omitempty"`
	// Parallelism overrides the engine's parallelism for this request:
	// the bound on concurrent candidate-architecture and
	// floorplan-packing evaluations of the search-driven cosynthesis
	// flow, and on concurrent Monte-Carlo replicas of the simulate and
	// stream flows (Validate rejects it on other flows, which never
	// consume it). 0 uses the engine's pool (WithSearchParallelism,
	// default GOMAXPROCS); 1 forces the serial path. Results are
	// byte-identical at every value — only wall-clock changes.
	Parallelism int `json:"parallelism,omitempty"`
	// Seed drives the GA floorplanner (FlowCoSynthesis) or the graph
	// generator (FlowSweep). Nil keeps the historical default (1); an
	// explicit zero is honored as seed 0.
	Seed *int64 `json:"seed,omitempty"`

	// Solver overrides the engine's steady-state thermal solver backend
	// for this request: one of hotspot.SolverNames — dense (the golden
	// reference: natural-order sparse Cholesky plus the full influence
	// matrix) or sparse (min-degree order plus truncated cached influence
	// rows). Empty keeps the engine's setting (WithSolverBackend, default
	// dense). Both backends are deterministic and agree to ≤1e-6 K on
	// the paper benchmarks; FlowGenerate never builds a thermal model,
	// so Validate rejects the override there.
	Solver string `json:"solver,omitempty"`

	// SweepCount is the number of random graphs FlowSweep evaluates
	// (default 4).
	SweepCount int `json:"sweepCount,omitempty"`

	// Simulate tunes FlowSimulate; nil uses the defaults documented on
	// SimulateSpec.
	Simulate *SimulateSpec `json:"simulate,omitempty"`

	// Campaign tunes FlowCampaign; nil uses the defaults documented on
	// CampaignSpec.
	Campaign *CampaignSpec `json:"campaign,omitempty"`

	// Stream describes the online workload FlowStream generates and
	// dispatches; nil everywhere else (Validate rejects it on other
	// flows). Generated workloads are cached by fingerprint.
	Stream *StreamSpec `json:"stream,omitempty"`

	// IncludeGantt asks for the schedule's per-PE timeline in
	// Response.Gantt (platform and cosynthesis flows).
	IncludeGantt bool `json:"includeGantt,omitempty"`
}

// RequestOption mutates a Request under construction; see NewRequest.
type RequestOption func(*Request)

// NewRequest assembles a Request for a flow from functional options.
func NewRequest(flow FlowKind, opts ...RequestOption) Request {
	req := Request{Flow: flow}
	for _, o := range opts {
		o(&req)
	}
	return req
}

// WithBenchmark selects a paper benchmark ("Bm1" … "Bm4") as the input.
func WithBenchmark(name string) RequestOption {
	return func(r *Request) { r.Benchmark = name }
}

// WithGraph ships a custom task graph with the request.
func WithGraph(g *Graph) RequestOption {
	return func(r *Request) { r.Graph = GraphSpecOf(g) }
}

// WithGraphSpec ships an already-serialized task graph.
func WithGraphSpec(spec *GraphSpec) RequestOption {
	return func(r *Request) { r.Graph = spec }
}

// WithScenario makes the request run on (or, for FlowGenerate, emit)
// the described synthetic scenario.
func WithScenario(spec ScenarioSpec) RequestOption {
	return func(r *Request) { r.Scenario = &spec }
}

// WithCampaign tunes the FlowCampaign study.
func WithCampaign(spec CampaignSpec) RequestOption {
	return func(r *Request) { r.Campaign = &spec }
}

// WithStream makes the request generate and dispatch the described
// online workload (FlowStream).
func WithStream(spec StreamSpec) RequestOption {
	return func(r *Request) { r.Stream = &spec }
}

// WithPolicy selects the ASP variant.
func WithPolicy(p Policy) RequestOption {
	return func(r *Request) { r.Policy = p.String() }
}

// WithBusTimePerUnit overrides the shared-bus communication rate.
func WithBusTimePerUnit(rate float64) RequestOption {
	return func(r *Request) { r.BusTimePerUnit = rate }
}

// WithTempWeight overrides the thermal-aware ASP's °C-to-time weight.
func WithTempWeight(w float64) RequestOption {
	return func(r *Request) { r.TempWeight = &w }
}

// WithPowerWeight overrides the W-to-time weight of heuristics 1 and 2.
func WithPowerWeight(w float64) RequestOption {
	return func(r *Request) { r.PowerWeight = &w }
}

// WithEnergyWeight overrides heuristic 3's energy-to-time weight.
func WithEnergyWeight(w float64) RequestOption {
	return func(r *Request) { r.EnergyWeight = &w }
}

// WithThermalHorizon overrides the thermal inquiry accumulation window.
func WithThermalHorizon(h float64) RequestOption {
	return func(r *Request) { r.ThermalHorizon = &h }
}

// WithSeed fixes the run's seed. Unlike the legacy config structs, an
// explicit zero is honored rather than silently rewritten to 1.
func WithSeed(seed int64) RequestOption {
	return func(r *Request) { r.Seed = &seed }
}

// WithMaxPEs caps the co-synthesized architecture size.
func WithMaxPEs(n int) RequestOption {
	return func(r *Request) { r.MaxPEs = n }
}

// WithCandidateTypes restricts the PE types co-synthesis may instantiate.
func WithCandidateTypes(names ...string) RequestOption {
	return func(r *Request) { r.CandidateTypes = names }
}

// WithFloorplanGenerations sizes the GA floorplanner effort per
// candidate architecture.
func WithFloorplanGenerations(n int) RequestOption {
	return func(r *Request) { r.FloorplanGenerations = n }
}

// WithParallelism overrides the engine's search parallelism for this
// request (0 = engine default, 1 = serial). Results are byte-identical
// at every value.
func WithParallelism(n int) RequestOption {
	return func(r *Request) { r.Parallelism = n }
}

// WithSolver overrides the engine's thermal solver backend for this
// request (one of hotspot.SolverNames; empty = engine default).
func WithSolver(name string) RequestOption {
	return func(r *Request) { r.Solver = name }
}

// WithSweepCount sets how many random graphs FlowSweep evaluates.
func WithSweepCount(n int) RequestOption {
	return func(r *Request) { r.SweepCount = n }
}

// WithSimulate tunes the FlowSimulate closed-loop co-simulation.
func WithSimulate(spec SimulateSpec) RequestOption {
	return func(r *Request) { r.Simulate = &spec }
}

// WithReplicas sets FlowSimulate's Monte-Carlo replica count, keeping
// any other simulate settings already on the request.
func WithReplicas(n int) RequestOption {
	return func(r *Request) {
		if r.Simulate == nil {
			r.Simulate = &SimulateSpec{}
		}
		r.Simulate.Replicas = n
	}
}

// WithGantt asks for the schedule's per-PE timeline in the response.
func WithGantt() RequestOption {
	return func(r *Request) { r.IncludeGantt = true }
}

// policy resolves the request's policy name (empty means ThermalAware).
func (r *Request) policy() (Policy, error) {
	if r.Policy == "" {
		return ThermalAware, nil
	}
	return sched.ParsePolicy(r.Policy)
}

// Validate reports the first problem that makes the request unrunnable,
// as a *FieldError naming the offending field. The Engine validates
// every request; services should call this before accepting work so
// malformed requests fail fast with a clear message — the service's 400
// bodies and the CLI's usage errors carry these messages verbatim.
//
// The generic rules (flow existence, policy family, input arity, shared
// knob ranges, cross-flow spec rejection) are driven entirely by the
// flow registry; flow-specific checks run through each registry row's
// validate hook.
func (r *Request) Validate() error {
	if r.Flow == "" {
		return fieldErr("flow", "request missing flow (want one of %v)", FlowKinds())
	}
	fs, ok := flowFor(r.Flow)
	if !ok {
		return fieldErr("flow", "unknown flow %q (want one of %v)", r.Flow, FlowKinds())
	}
	if err := fs.checkPolicy(r); err != nil {
		return err
	}
	inputs := 0
	for _, set := range []bool{r.Benchmark != "", r.Graph != nil, r.Scenario != nil} {
		if set {
			inputs++
		}
	}
	switch fs.input {
	case flowInputGenerated:
		if inputs > 0 {
			return fieldErr("input", "%s requests generate their own inputs; remove benchmark/graph/scenario", r.Flow)
		}
	case flowInputScenario:
		if r.Scenario == nil {
			return fieldErr("scenario", "%s requests need a scenario spec", r.Flow)
		}
		if r.Benchmark != "" || r.Graph != nil {
			return fieldErr("input", "%s requests take only a scenario spec; remove benchmark/graph", r.Flow)
		}
	case flowInputStream:
		if inputs > 0 {
			return fieldErr("input", "%s requests take only a stream spec; remove benchmark/graph/scenario", r.Flow)
		}
	default: // flowInputOne
		switch {
		case inputs == 0:
			return fieldErr("input", "request needs a benchmark name, an inline graph or a scenario spec")
		case inputs > 1:
			return fieldErr("input", "set exactly one of benchmark, graph or scenario")
		}
	}
	if r.Scenario != nil {
		if err := r.Scenario.Validate(); err != nil {
			return fieldErr("scenario", "%v", err)
		}
	}
	if r.Campaign != nil && r.Flow != FlowCampaign {
		return fieldErr("campaign", "campaign parameters on a %q request", r.Flow)
	}
	if r.Campaign != nil {
		if err := r.Campaign.Validate(); err != nil {
			// A nested spec's FieldError already names its full path
			// ("campaign.simulate.hysteresis"); keep it.
			var fe *FieldError
			if errors.As(err, &fe) {
				return fe
			}
			return fieldErr("campaign", "%v", err)
		}
	}
	if r.Stream != nil && r.Flow != FlowStream {
		return fieldErr("stream", "stream parameters on a %q request", r.Flow)
	}
	if r.Benchmark != "" {
		known := taskgraph.BenchmarkNames()
		found := false
		for _, n := range known {
			if n == r.Benchmark {
				found = true
				break
			}
		}
		if !found {
			return fieldErr("benchmark", "unknown benchmark %q (want one of %s)",
				r.Benchmark, strings.Join(known, ", "))
		}
	}
	if r.BusTimePerUnit < 0 {
		return fieldErr("busTimePerUnit", "negative bus rate %g", r.BusTimePerUnit)
	}
	for _, w := range []struct {
		field string
		v     *float64
	}{{"tempWeight", r.TempWeight}, {"powerWeight", r.PowerWeight}, {"energyWeight", r.EnergyWeight}} {
		if w.v != nil && *w.v < 0 {
			return fieldErr(w.field, "negative %s %g", w.field, *w.v)
		}
	}
	if r.MaxPEs < 0 {
		return fieldErr("maxPEs", "negative MaxPEs %d", r.MaxPEs)
	}
	if r.FloorplanGenerations < 0 {
		return fieldErr("floorplanGenerations", "negative floorplan generations %d", r.FloorplanGenerations)
	}
	if r.Parallelism < 0 {
		return fieldErr("parallelism", "negative parallelism %d", r.Parallelism)
	}
	if r.Parallelism > 0 && !fs.parallelism {
		return fieldErr("parallelism", "parallelism on a %q request (only the cosynthesis, simulate and stream flows consume it)", r.Flow)
	}
	switch r.Solver {
	case "", hotspot.SolverDense, hotspot.SolverSparse:
	default:
		return fieldErr("solver", "unknown solver %q (want one of %v)", r.Solver, hotspot.SolverNames())
	}
	if r.Simulate != nil && r.Flow != FlowSimulate {
		return fieldErr("simulate", "simulate parameters on a %q request", r.Flow)
	}
	if fs.validate != nil {
		return fs.validate(r)
	}
	return nil
}

// schedOverrides reports whether any scheduler knob is set and builds
// the resulting configuration for the policy.
func (r *Request) schedOverrides(p Policy) *SchedConfig {
	if r.TempWeight == nil && r.PowerWeight == nil && r.EnergyWeight == nil && r.ThermalHorizon == nil {
		return nil
	}
	sc := sched.DefaultConfig(p)
	if r.TempWeight != nil {
		sc.TempWeight = *r.TempWeight
	}
	if r.PowerWeight != nil {
		sc.PowerWeight = *r.PowerWeight
	}
	if r.EnergyWeight != nil {
		sc.EnergyWeight = *r.EnergyWeight
	}
	if r.ThermalHorizon != nil {
		sc.ThermalHorizon = *r.ThermalHorizon
	}
	return &sc
}

// platformConfig lowers the request to the platform flow's configuration.
func (r *Request) platformConfig() (cosynth.PlatformConfig, error) {
	p, err := r.policy()
	if err != nil {
		return cosynth.PlatformConfig{}, err
	}
	return cosynth.PlatformConfig{
		Policy:         p,
		Sched:          r.schedOverrides(p),
		BusTimePerUnit: r.BusTimePerUnit,
	}, nil
}

// cosynthConfig lowers the request to the co-synthesis flow's
// configuration.
func (r *Request) cosynthConfig() (cosynth.CoSynthConfig, error) {
	p, err := r.policy()
	if err != nil {
		return cosynth.CoSynthConfig{}, err
	}
	cfg := cosynth.CoSynthConfig{
		Policy:               p,
		Sched:                r.schedOverrides(p),
		CandidateTypes:       r.CandidateTypes,
		MaxPEs:               r.MaxPEs,
		BusTimePerUnit:       r.BusTimePerUnit,
		FloorplanGenerations: r.FloorplanGenerations,
	}
	if r.Seed != nil {
		cfg.Seed = *r.Seed
		cfg.SeedSet = true
	}
	return cfg, nil
}
