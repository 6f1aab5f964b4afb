package thermalsched

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
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
	// win rates. Its defaults are the randomized robustness study:
	// heuristic 3 against the thermal-aware ASP over 20–60-task graphs.
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
	b := taskgraph.NewBuilder(s.Name, s.Deadline)
	for _, t := range s.Tasks {
		if err := b.AddTask(taskgraph.Task{ID: t.ID, Name: t.Name, Type: t.Type}); err != nil {
			return nil, err
		}
	}
	for _, e := range s.Edges {
		if err := b.AddEdge(taskgraph.Edge{From: e.From, To: e.To, Data: e.Data, Prob: e.Prob}); err != nil {
			return nil, err
		}
	}
	return b.Build()
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
	s.FairC = cmp.Or(s.FairC, dtm.DefaultLadder.FairC)
	s.SeriousC = cmp.Or(s.SeriousC, dtm.DefaultLadder.SeriousC)
	s.CriticalC = cmp.Or(s.CriticalC, dtm.DefaultLadder.CriticalC)
	s.SeriousScale = cmp.Or(s.SeriousScale, 0.7)
	s.CriticalScale = cmp.Or(s.CriticalScale, 0.4)
	s.RetryAfter = cmp.Or(s.RetryAfter, 2)
	s.Hysteresis = cmp.Or(s.Hysteresis, 2)
	s.CoolTime = cmp.Or(s.CoolTime, 5)
	return s
}

// ladder lowers the spec's thermal-state thresholds. Call on a
// withDefaults() copy.
func (s SupervisorSpec) ladder() dtm.Ladder {
	return dtm.Ladder{FairC: s.FairC, SeriousC: s.SeriousC, CriticalC: s.CriticalC}
}

// validate checks the knob ranges; prefix is the JSON path of the
// embedding spec ("simulate", "stream" or their campaign forms) and dt
// its loop step, in which the zigzag gap is counted. Call on a
// withDefaults() copy so zero (defaulted) knobs are already resolved.
// Every check is a negated range test, so NaN fails it too.
func (s SupervisorSpec) validate(prefix string, dt float64) error {
	if !(s.Hysteresis >= 0) {
		return fieldErr(prefix+".hysteresis", "negative hysteresis %g", s.Hysteresis)
	}
	if !(s.FairC < s.SeriousC && s.SeriousC < s.CriticalC) {
		return fieldErr(prefix+".fairC", "thermal-state ladder must ascend (fair %g, serious %g, critical %g)",
			s.FairC, s.SeriousC, s.CriticalC)
	}
	if !(0 <= s.SeriousScale && s.SeriousScale <= 1 && 0 <= s.CriticalScale && s.CriticalScale <= 1) {
		return fieldErr(prefix+".seriousScale", "admission scales (serious %g, critical %g) out of [0, 1]",
			s.SeriousScale, s.CriticalScale)
	}
	if !(s.RetryAfter > 0) {
		return fieldErr(prefix+".retryAfter", "admission RetryAfter %g must be positive", s.RetryAfter)
	}
	if _, err := dtm.NewZigZagController(s.ladder(), s.CoolTime, dt, 0); err != nil {
		return fieldErr(prefix+".coolTime", "%v", err)
	}
	return nil
}

// supervisor materializes a fresh admit or zigzag supervisor, or nil
// for any other kind; dt is the loop step the zigzag gap rounds up to.
// Each replica gets its own instance: supervisors carry per-run state
// (admission holds, cooling gaps) and are not safe for concurrent use.
// Call on a withDefaults() copy.
func (s SupervisorSpec) supervisor(kind string, dt float64) (dtm.Supervisor, error) {
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
	// DT is the co-simulation step in schedule time units (default 1).
	// It is also the sensing period: every controller reads the
	// temperatures and acts once per DT, so a controlled result holds at
	// the DT it was run at. TimeScale converts one schedule time unit to
	// seconds of transient simulation (default 0.1).
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
	out.Controller = cmp.Or(out.Controller, "toggle")
	out.TriggerC = cmp.Or(out.TriggerC, 80)
	out.Throttle = cmp.Or(out.Throttle, 0.5)
	out.SetpointC = cmp.Or(out.SetpointC, 80)
	out.Kp = cmp.Or(out.Kp, 0.05)
	out.Ki = cmp.Or(out.Ki, 0.002)
	out.MinScale = cmp.Or(out.MinScale, 0.1)
	out.SupervisorSpec = out.SupervisorSpec.withDefaults()
	out.DT = cmp.Or(out.DT, 1)
	out.TimeScale = cmp.Or(out.TimeScale, 0.1)
	out.MinFactor = cmp.Or(out.MinFactor, 1)
	out.Replicas = cmp.Or(out.Replicas, 1)
	return out
}

// Request is one JSON-serializable unit of work for an Engine. Build it
// as a literal or decode it from JSON; each field's JSON key is its wire
// name. Zero-valued knobs mean "use the calibrated default";
// pointer-typed knobs distinguish "unset" from an explicit zero (which
// is why Seed is a *int64 — an explicit zero seed is valid). Each flow
// reads only the fields its row of the flow registry (flowTable in
// flow.go, tabulated in README) lists; Validate rejects any other field
// that is set.
type Request struct {
	// Flow selects the execution flow.
	Flow FlowKind `json:"flow"`
	// Benchmark names a paper benchmark ("Bm1" … "Bm4"). The offline
	// flows take exactly one of Benchmark, Graph or Scenario.
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

	// BusTimePerUnit overrides the shared-bus communication rate; the
	// canonical form resolves zero to the experiments' default (0.05).
	BusTimePerUnit float64 `json:"busTimePerUnit,omitempty"`
	// TempWeight, PowerWeight and EnergyWeight override the ASP's
	// °C-, W- and energy-to-time weights (thermal-aware, heuristics 1/2
	// and heuristic 3); ThermalHorizon overrides the window, in schedule
	// time units, over which a thermal inquiry averages a PE's
	// accumulated energy into power. The canonical form resolves nil to
	// the calibrated defaults (10, 20, 0.3 and 1000); Validate rejects
	// negative weights and a horizon that is not positive.
	TempWeight     *float64 `json:"tempWeight,omitempty"`
	PowerWeight    *float64 `json:"powerWeight,omitempty"`
	EnergyWeight   *float64 `json:"energyWeight,omitempty"`
	ThermalHorizon *float64 `json:"thermalHorizon,omitempty"`

	// MaxPEs, CandidateTypes and FloorplanGenerations tune
	// FlowCoSynthesis; the canonical form resolves a zero MaxPEs to 6
	// and zero FloorplanGenerations to 30.
	MaxPEs               int      `json:"maxPEs,omitempty"`
	CandidateTypes       []string `json:"candidateTypes,omitempty"`
	FloorplanGenerations int      `json:"floorplanGenerations,omitempty"`
	// Parallelism overrides the engine's parallelism for this request:
	// the bound on concurrent candidate-architecture and
	// floorplan-packing evaluations of the search-driven cosynthesis
	// flow, and on concurrent Monte-Carlo replicas of the simulate and
	// stream flows. 0 uses the engine's pool (WithSearchParallelism,
	// default GOMAXPROCS); 1 forces the serial path. Results are
	// byte-identical at every value — only wall-clock changes.
	Parallelism int `json:"parallelism,omitempty"`
	// Seed drives the GA floorplanner of FlowCoSynthesis. Nil keeps the
	// historical default (1); an explicit zero is honored as seed 0.
	Seed *int64 `json:"seed,omitempty"`

	// Simulate tunes FlowSimulate; nil uses the defaults documented on
	// SimulateSpec.
	Simulate *SimulateSpec `json:"simulate,omitempty"`

	// Campaign tunes FlowCampaign; nil uses the defaults documented on
	// CampaignSpec.
	Campaign *CampaignSpec `json:"campaign,omitempty"`

	// Stream describes the online workload FlowStream generates and
	// dispatches. Generated workloads are cached by fingerprint.
	Stream *StreamSpec `json:"stream,omitempty"`

	// IncludeGantt asks for the schedule's per-PE timeline in
	// Response.Gantt (the offline flows).
	IncludeGantt bool `json:"includeGantt,omitempty"`
}

// aspPolicy parses an offline policy name (empty means ThermalAware).
func aspPolicy(name string) (Policy, error) {
	if name == "" {
		return ThermalAware, nil
	}
	return sched.ParsePolicy(name)
}

// Validate reports the first problem that makes the request unrunnable,
// as a *FieldError naming the offending field. The Engine validates
// every request; services should call this before accepting work so
// malformed requests fail fast with a clear message — the service's 400
// bodies and the CLI's usage errors carry these messages verbatim.
//
// Validate checks the canonical form, the copy the flow reads, so a
// defaulted knob is checked at the value it runs with. The generic
// rules (flow existence, the fields each flow reads, input arity,
// policy family, shared knob ranges) are driven entirely by the flow
// registry; flow-specific checks run through each registry row's
// validate hook.
func (r *Request) Validate() error {
	c := r.canonical()
	return c.validate()
}

// validate is Validate on a request already in canonical form.
func (r *Request) validate() error {
	if r.Flow == "" {
		return fieldErr("flow", "request missing flow (want one of %v)", FlowKinds())
	}
	fs, ok := flowFor(r.Flow)
	if !ok {
		return fieldErr("flow", "unknown flow %q (want one of %v)", r.Flow, FlowKinds())
	}
	// Each flow reads only the fields its registry row lists; any other
	// set field is an error on that field, and a foreign workload is one
	// on "input".
	v := reflect.ValueOf(r).Elem()
	inputs := 0
	for i, key := range requestKeys {
		if v.Field(i).IsZero() {
			continue
		}
		isInput := slices.Contains(inputKeys, key)
		if !fs.readsField[i] {
			field := key
			if isInput {
				field = "input"
			}
			return fieldErr(field, "the %s flow does not read %s; remove it", r.Flow, key)
		}
		if isInput {
			inputs++
		}
	}
	switch {
	case len(fs.inputs) == 1 && inputs == 0:
		return fieldErr(fs.inputs[0], "a %s request needs a %s", r.Flow, fs.inputs[0])
	case len(fs.inputs) > 1 && inputs != 1:
		return fieldErr("input", "a %s request needs exactly one of %s", r.Flow, strings.Join(fs.inputs, ", "))
	}
	if _, err := fs.policyName(r.Policy); err != nil {
		return fieldErr("policy", "%v", err)
	}
	if r.Scenario != nil {
		if err := r.Scenario.Validate(); err != nil {
			return fieldErr("scenario", "%v", err)
		}
	}
	if r.Campaign != nil {
		if err := r.Campaign.validate(); err != nil {
			return err
		}
	}
	if r.Benchmark != "" {
		if known := taskgraph.BenchmarkNames(); !slices.Contains(known, r.Benchmark) {
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
	if r.ThermalHorizon != nil && !(*r.ThermalHorizon > 0) {
		return fieldErr("thermalHorizon", "thermal horizon %g must be positive", *r.ThermalHorizon)
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
	if fs.validate != nil {
		if err := fs.validate(r); err != nil {
			return err
		}
	}
	// A NaN or ±Inf that no range check above rejects would reach the
	// flow, and JSON cannot carry it, so Fingerprint could not digest
	// it either.
	if path, f, ok := nonFinite(reflect.ValueOf(r).Elem()); ok {
		return fieldErr(strings.TrimPrefix(path, "."), "%g is not a finite number", f)
	}
	return nil
}

// nonFinite finds the first NaN or ±Inf float in v's tree. It returns
// the float's JSON path relative to v (".graph.edges[0].data"); a
// struct embedded without a JSON tag adds no segment, as on the wire.
func nonFinite(v reflect.Value) (path string, f float64, ok bool) {
	switch v.Kind() {
	case reflect.Float64:
		f = v.Float()
		return "", f, math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Pointer:
		if !v.IsNil() {
			return nonFinite(v.Elem())
		}
	case reflect.Slice:
		for i := range v.Len() {
			if path, f, ok := nonFinite(v.Index(i)); ok {
				return fmt.Sprintf("[%d]%s", i, path), f, true
			}
		}
	case reflect.Struct:
		t := v.Type()
		for i := range t.NumField() {
			if path, f, ok := nonFinite(v.Field(i)); ok {
				if key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); key != "" {
					path = "." + key + path
				}
				return path, f, true
			}
		}
	}
	return "", 0, false
}

// canonical returns the request as its flow reads it: every knob its
// registry row lists takes its default when unset (a nil co-synthesis
// seed becomes 1), the Simulate, Stream and Campaign specs take theirs,
// Scenario is normalized and every policy name is spelled canonically.
// It sets no field the row does not list, so Validate can check this
// copy. A policy name that does not parse stays as written, for
// Validate to report. Engine.Run hands the flow this copy and
// Fingerprint digests it, so requests the flows cannot tell apart
// share one coalescing key. The receiver is not modified.
func (r *Request) canonical() Request {
	c := *r
	fs, known := flowFor(r.Flow)
	reads := func(key string) bool { return known && slices.Contains(fs.reads, key) }
	if reads("policy") {
		if p, err := fs.policyName(r.Policy); err == nil {
			c.Policy = p
		}
	}
	if reads("busTimePerUnit") {
		c.BusTimePerUnit = cmp.Or(c.BusTimePerUnit, techlib.DefaultBusTimePerUnit)
	}
	if reads("tempWeight") {
		if p, err := aspPolicy(c.Policy); err == nil {
			d := sched.DefaultConfig(p)
			c.TempWeight = cmp.Or(c.TempWeight, &d.TempWeight)
			c.PowerWeight = cmp.Or(c.PowerWeight, &d.PowerWeight)
			c.EnergyWeight = cmp.Or(c.EnergyWeight, &d.EnergyWeight)
			c.ThermalHorizon = cmp.Or(c.ThermalHorizon, &d.ThermalHorizon)
		}
	}
	if reads("maxPEs") {
		c.MaxPEs = cmp.Or(c.MaxPEs, cosynth.DefaultMaxPEs)
	}
	if reads("floorplanGenerations") {
		c.FloorplanGenerations = cmp.Or(c.FloorplanGenerations, cosynth.DefaultFloorplanGenerations)
	}
	if reads("seed") && r.Seed == nil {
		seed := int64(1) // nil keeps the historical default
		c.Seed = &seed
	}
	if r.Scenario != nil {
		s := r.Scenario.Normalized()
		c.Scenario = &s
	}
	if reads("simulate") {
		s := r.Simulate.withDefaults()
		c.Simulate = &s
	}
	if r.Stream != nil {
		s := r.Stream.withDefaults()
		c.Stream = &s
	}
	if reads("campaign") {
		s := r.Campaign.withDefaults()
		c.Campaign = &s
	}
	return c
}

// schedConfig lowers the canonical request's ASP knobs to the
// scheduler configuration.
func (r *Request) schedConfig() (SchedConfig, error) {
	p, err := aspPolicy(r.Policy)
	if err != nil {
		return SchedConfig{}, err
	}
	return SchedConfig{
		Policy:         p,
		TempWeight:     *r.TempWeight,
		PowerWeight:    *r.PowerWeight,
		EnergyWeight:   *r.EnergyWeight,
		ThermalHorizon: *r.ThermalHorizon,
	}, nil
}

// platformConfig lowers the canonical request to the platform flow's
// configuration; the Engine adds the thermal calibration, the platform
// and the model cache.
func (r *Request) platformConfig() (cosynth.PlatformConfig, error) {
	sc, err := r.schedConfig()
	if err != nil {
		return cosynth.PlatformConfig{}, err
	}
	return cosynth.PlatformConfig{Sched: sc, BusTimePerUnit: r.BusTimePerUnit}, nil
}

// cosynthConfig lowers the canonical request to the co-synthesis flow's
// configuration.
func (r *Request) cosynthConfig() (cosynth.CoSynthConfig, error) {
	sc, err := r.schedConfig()
	if err != nil {
		return cosynth.CoSynthConfig{}, err
	}
	return cosynth.CoSynthConfig{
		Sched:                sc,
		CandidateTypes:       r.CandidateTypes,
		MaxPEs:               r.MaxPEs,
		BusTimePerUnit:       r.BusTimePerUnit,
		FloorplanGenerations: r.FloorplanGenerations,
		Seed:                 *r.Seed,
	}, nil
}
