package thermalsched

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"thermalsched/internal/dtm"
	"thermalsched/internal/stream"
)

// FieldError is a typed request-validation failure naming the offending
// field, so every surface — Engine callers, the service's 400 bodies,
// the CLI's usage errors — reports the same machine-readable shape.
// Field is the request's JSON path ("flow", "simulate.replicas", …);
// the synthetic path "input" names the cross-field benchmark/graph/
// scenario arity rules. Unwrap with errors.As to reach Field.
type FieldError struct {
	Field string
	Msg   string
}

// Error renders the canonical message shared verbatim across surfaces.
func (e *FieldError) Error() string {
	return fmt.Sprintf("thermalsched: invalid %s: %s", e.Field, e.Msg)
}

// fieldErr builds a FieldError in one line.
func fieldErr(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// flowSpec is one row of the flow registry — the single place a flow
// registers its dispatch, validation and help text. Engine.Check,
// Engine.RunChecked, FlowKinds(), Request.Validate and the CLI's
// help all read from this table, so adding a flow is exactly one new
// entry plus its run function.
type flowSpec struct {
	kind FlowKind
	// summary is the one-line help text the CLI help renders.
	summary string
	// reads lists, by JSON key, the Request fields the flow consumes
	// besides flow itself. Validate rejects any other field that is set,
	// so a Request field no row lists is rejected on every flow.
	reads []string
	// run executes the flow on a checked request.
	run func(*Engine, context.Context, *Checked) (*Response, error)
	// validate holds flow-specific checks beyond the generic rules;
	// nil means none.
	validate func(*Request) error
	// onlinePolicy marks flows whose Policy field names an online
	// policy (stream.ParsePolicy) rather than an offline ASP variant.
	onlinePolicy bool
	// readsField is reads as a mask over Request's fields, by field
	// index, and inputs the inputKeys among reads; init computes both.
	readsField []bool
	inputs     []string
}

// flowRegistry lists every flow in canonical order. Order is API:
// FlowKinds() and the CLI help render it verbatim. It is populated in
// init (not a var initializer) because the run hooks reach Engine
// methods that themselves dispatch through the registry — a var
// initializer would be an initialization cycle.
var (
	flowRegistry []flowSpec
	flowIndex    map[FlowKind]*flowSpec
	// requestKeys holds the JSON key of each Request field, by field
	// index.
	requestKeys []string
)

func init() {
	rt := reflect.TypeFor[Request]()
	requestKeys = make([]string, rt.NumField())
	for i := range requestKeys {
		requestKeys[i], _, _ = strings.Cut(rt.Field(i).Tag.Get("json"), ",")
	}
	flowRegistry = flowTable()
	flowIndex = make(map[FlowKind]*flowSpec, len(flowRegistry))
	for i := range flowRegistry {
		fs := &flowRegistry[i]
		fs.readsField = make([]bool, len(requestKeys))
		for j, key := range requestKeys {
			fs.readsField[j] = key == "flow" || slices.Contains(fs.reads, key)
			if fs.readsField[j] && slices.Contains(inputKeys, key) {
				fs.inputs = append(fs.inputs, key)
			}
		}
		flowIndex[fs.kind] = fs
	}
}

// inputKeys are the Request fields that carry an offline flow's
// workload. A flow that reads any of them takes exactly one, and a
// foreign one is an error on the synthetic field "input".
var inputKeys = []string{"benchmark", "graph", "scenario"}

// offlineReads are the fields the three offline flows share: their
// input and the ASP knobs.
var offlineReads = slices.Concat(inputKeys, []string{
	"policy", "busTimePerUnit", "tempWeight", "powerWeight", "energyWeight", "thermalHorizon", "includeGantt"})

func flowTable() []flowSpec {
	return []flowSpec{
		{
			kind:    FlowPlatform,
			summary: "schedule on the fixed 4-PE platform (paper Fig. 1b)",
			reads:   offlineReads,
			run:     (*Engine).runPlatformFlow,
		},
		{
			kind:    FlowCoSynthesis,
			summary: "deadline-driven architecture selection with floorplanning in the loop (paper Fig. 1a)",
			reads:   slices.Concat(offlineReads, []string{"maxPEs", "candidateTypes", "floorplanGenerations", "parallelism", "seed"}),
			run:     (*Engine).runCoSynthFlow,
		},
		{
			kind:     FlowSimulate,
			summary:  "closed-loop DTM co-simulation with Monte-Carlo replicas",
			reads:    slices.Concat(offlineReads, []string{"parallelism", "simulate"}),
			run:      (*Engine).runSimulateFlow,
			validate: validateSimulateFlow,
		},
		{
			kind:    FlowGenerate,
			summary: "materialize a synthetic scenario without scheduling it",
			reads:   []string{"scenario"},
			run:     (*Engine).runGenerateFlow,
		},
		{
			kind:    FlowCampaign,
			summary: "policy duel fanned across a generated scenario family",
			reads:   []string{"campaign"},
			run:     (*Engine).runCampaignFlow,
		},
		{
			kind:         FlowStream,
			summary:      "online scheduling of periodic + aperiodic arrivals against live thermal state",
			reads:        []string{"policy", "busTimePerUnit", "parallelism", "stream"},
			run:          (*Engine).runStreamFlow,
			validate:     validateStreamFlow,
			onlinePolicy: true,
		},
	}
}

// flowFor resolves a registry row.
func flowFor(kind FlowKind) (*flowSpec, bool) {
	fs, ok := flowIndex[kind]
	return fs, ok
}

// FlowKinds lists every flow an Engine accepts, in registry order.
func FlowKinds() []FlowKind {
	out := make([]FlowKind, len(flowRegistry))
	for i := range flowRegistry {
		out[i] = flowRegistry[i].kind
	}
	return out
}

// FlowUsage renders one help line per flow for the CLI's help text.
func FlowUsage() string {
	var b strings.Builder
	for _, fs := range flowRegistry {
		fmt.Fprintf(&b, "  %-12s %s\n", fs.kind, fs.summary)
	}
	return b.String()
}

// Flow-specific validation hooks. The generic rules (flow existence,
// the fields each flow reads, input arity, policy syntax, shared knob
// ranges) live in Request.Validate; these cover the rest.

// errOf drops a constructor's value and keeps its error.
func errOf[T any](_ T, err error) error { return err }

// simulateControllers is the FlowSimulate controller-kind value set, in
// help order.
var simulateControllers = []string{"toggle", "pi", "none", "admit", "zigzag"}

func validateSimulateFlow(r *Request) error {
	return r.Simulate.validate("simulate")
}

// validate checks the spec's knobs; prefix is its JSON path
// ("simulate", or "campaign.simulate" inside a campaign). Call on a
// withDefaults() copy. The toggle and PI knobs go through the dtm
// constructors' own range checks, one knob per call so the error names
// its field.
func (s *SimulateSpec) validate(prefix string) error {
	if !slices.Contains(simulateControllers, s.Controller) {
		return fieldErr(prefix+".controller", "unknown simulate controller %q (want one of %v)", s.Controller, simulateControllers)
	}
	if err := checkLoop(prefix, s.DT, s.TimeScale, s.MinFactor, s.Replicas); err != nil {
		return err
	}
	if err := s.SupervisorSpec.validate(prefix, s.DT); err != nil {
		return err
	}
	for _, k := range []struct {
		field string
		err   error
	}{
		{"triggerC", errOf(dtm.NewToggleController(s.TriggerC, 0, 0))},
		{"hysteresis", errOf(dtm.NewToggleController(0, s.Hysteresis, 0))},
		{"throttle", errOf(dtm.NewToggleController(0, 0, s.Throttle))},
		{"setpointC", errOf(dtm.NewPIController(s.SetpointC, 0, 0, 0))},
		{"kp", errOf(dtm.NewPIController(0, s.Kp, 0, 0))},
		{"ki", errOf(dtm.NewPIController(0, 0, s.Ki, 0))},
		{"minScale", errOf(dtm.NewPIController(0, 0, 0, s.MinScale))},
	} {
		if k.err != nil {
			return fieldErr(prefix+"."+k.field, "%v", k.err)
		}
	}
	return nil
}

// checkLoop checks the co-simulation knobs the simulate and stream
// specs share, on their defaulted values: each must lie in
// (0, hi]. The negated comparison also rejects NaN, which fails every
// comparison and so slips through a plain out-of-range test.
func checkLoop(prefix string, dt, timeScale, minFactor float64, replicas int) error {
	for _, k := range []struct {
		field string
		v, hi float64
	}{
		{"dt", dt, math.MaxFloat64},
		{"timeScale", timeScale, math.MaxFloat64},
		{"minFactor", minFactor, 1},
		{"replicas", float64(replicas), MaxSimulateReplicas},
	} {
		if !(k.v > 0 && k.v <= k.hi) {
			return fieldErr(prefix+"."+k.field, "%s %g out of (0, %.4g]", k.field, k.v, k.hi)
		}
	}
	return nil
}

func validateStreamFlow(r *Request) error {
	return r.Stream.validate("stream")
}

// policyName spells a Policy field canonically in the flow's policy
// family: an online policy, or an ASP variant where empty means
// thermal.
func (fs *flowSpec) policyName(name string) (string, error) {
	if fs.onlinePolicy {
		return stream.ParsePolicy(name)
	}
	p, err := aspPolicy(name)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}
