package thermalsched

import (
	"context"
	"fmt"
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

// flowInput classifies what a flow consumes from the request's input
// fields (Benchmark / Graph / Scenario / Stream).
type flowInput int

const (
	// flowInputOne: exactly one of benchmark, graph or scenario.
	flowInputOne flowInput = iota
	// flowInputGenerated: none — the flow generates its own inputs.
	flowInputGenerated
	// flowInputScenario: a scenario spec and nothing else.
	flowInputScenario
	// flowInputStream: a stream spec and nothing else.
	flowInputStream
)

// flowSpec is one row of the flow registry — the single place a flow
// registers its dispatch, validation and help text. Engine.Run,
// FlowKinds(), Request.Validate(), the service's routing (via Validate)
// and the CLI's -flow help all read from this table, so adding a flow
// is exactly one new entry plus its run function.
type flowSpec struct {
	kind FlowKind
	// summary is the one-line help text the CLI renders for -flow.
	summary string
	// input selects the generic input-arity rule Validate enforces.
	input flowInput
	// run executes the flow (after Validate) on the engine.
	run func(*Engine, context.Context, *Request) (*Response, error)
	// validate holds flow-specific checks beyond the generic rules;
	// nil means none.
	validate func(*Request) error
	// parallelism marks flows that consume Request.Parallelism.
	parallelism bool
	// onlinePolicy marks flows whose Policy field names an online
	// policy (stream.ParsePolicy) rather than an offline ASP variant.
	onlinePolicy bool
}

// flowRegistry lists every flow in canonical order. Order is API:
// FlowKinds() and the CLI help render it verbatim. It is populated in
// init (not a var initializer) because the run hooks reach Engine
// methods that themselves dispatch through the registry — a var
// initializer would be an initialization cycle.
var (
	flowRegistry []flowSpec
	flowIndex    map[FlowKind]*flowSpec
)

func init() {
	flowRegistry = flowTable()
	flowIndex = make(map[FlowKind]*flowSpec, len(flowRegistry))
	for i := range flowRegistry {
		flowIndex[flowRegistry[i].kind] = &flowRegistry[i]
	}
}

func flowTable() []flowSpec {
	return []flowSpec{
		{
			kind:    FlowPlatform,
			summary: "schedule on the fixed 4-PE platform (paper Fig. 1b)",
			input:   flowInputOne,
			run:     (*Engine).runPlatformFlow,
		},
		{
			kind:        FlowCoSynthesis,
			summary:     "deadline-driven architecture selection with floorplanning in the loop (paper Fig. 1a)",
			input:       flowInputOne,
			run:         (*Engine).runCoSynthFlow,
			parallelism: true,
		},
		{
			kind:     FlowSweep,
			summary:  "randomized power-aware vs thermal-aware robustness study",
			input:    flowInputGenerated,
			run:      (*Engine).runSweepFlow,
			validate: validateSweepFlow,
		},
		{
			kind:        FlowSimulate,
			summary:     "closed-loop DTM co-simulation with Monte-Carlo replicas",
			input:       flowInputOne,
			run:         (*Engine).runSimulateFlow,
			validate:    validateSimulateFlow,
			parallelism: true,
		},
		{
			kind:     FlowGenerate,
			summary:  "materialize a synthetic scenario without scheduling it",
			input:    flowInputScenario,
			run:      runGenerateFlowCtx,
			validate: validateGenerateFlow,
		},
		{
			kind:    FlowCampaign,
			summary: "policy duel fanned across a generated scenario family",
			input:   flowInputGenerated,
			run:     (*Engine).runCampaignFlow,
		},
		{
			kind:         FlowStream,
			summary:      "online scheduling of periodic + aperiodic arrivals against live thermal state",
			input:        flowInputStream,
			run:          (*Engine).runStreamFlow,
			validate:     validateStreamFlow,
			parallelism:  true,
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

// FlowNames renders the registry as a comma-separated name list — the
// CLI's -flow value set.
func FlowNames() string {
	names := make([]string, len(flowRegistry))
	for i := range flowRegistry {
		names[i] = string(flowRegistry[i].kind)
	}
	return strings.Join(names, ", ")
}

// FlowUsage renders one help line per flow for the CLI's -flow text.
func FlowUsage() string {
	var b strings.Builder
	for _, fs := range flowRegistry {
		fmt.Fprintf(&b, "  %-12s %s\n", fs.kind, fs.summary)
	}
	return b.String()
}

// runGenerateFlowCtx adapts the generate flow (which never blocks long
// enough to need cancellation) to the registry signature.
func runGenerateFlowCtx(e *Engine, _ context.Context, req *Request) (*Response, error) {
	return e.runGenerateFlow(req)
}

// Flow-specific validation hooks. The generic rules (flow existence,
// input arity, policy syntax, shared knob ranges, cross-flow spec
// rejection) live in Request.Validate; these cover the rest.

func validateSweepFlow(r *Request) error {
	if r.SweepCount < 0 {
		return fieldErr("sweepCount", "negative sweep count %d", r.SweepCount)
	}
	return nil
}

func validateGenerateFlow(r *Request) error {
	if r.Solver != "" {
		return fieldErr("solver", "solver override on a %q request (it never builds a thermal model)", r.Flow)
	}
	return nil
}

// errOf drops a constructor's value and keeps its error.
func errOf[T any](_ T, err error) error { return err }

// simulateControllers is the FlowSimulate controller-kind value set, in
// help order.
var simulateControllers = []string{"toggle", "pi", "none", "admit", "zigzag"}

func validSimulateController(name string) bool {
	if name == "" {
		return true
	}
	for _, c := range simulateControllers {
		if name == c {
			return true
		}
	}
	return false
}

func validateSimulateFlow(r *Request) error {
	if r.Simulate == nil {
		return nil
	}
	return r.Simulate.validate("simulate")
}

// validate checks the spec's knobs; prefix is its JSON path
// ("simulate", or "campaign.simulate" inside a campaign). The toggle
// and PI knobs go through the dtm constructors' own range checks, one
// knob per call so the error names its field.
func (s *SimulateSpec) validate(prefix string) error {
	if !validSimulateController(s.Controller) {
		return fieldErr(prefix+".controller", "unknown simulate controller %q (want one of %v)", s.Controller, simulateControllers)
	}
	if s.Replicas < 0 {
		return fieldErr(prefix+".replicas", "negative replica count %d", s.Replicas)
	}
	if s.Replicas > MaxSimulateReplicas {
		return fieldErr(prefix+".replicas", "%d replicas exceed the limit %d", s.Replicas, MaxSimulateReplicas)
	}
	if s.DT < 0 || s.TimeScale < 0 {
		return fieldErr(prefix+".dt", "negative simulate step (dt %g, timeScale %g)", s.DT, s.TimeScale)
	}
	if s.MinFactor < 0 || s.MinFactor > 1 {
		return fieldErr(prefix+".minFactor", "simulate MinFactor %g out of (0, 1]", s.MinFactor)
	}
	n := s.withDefaults()
	if err := n.SupervisorSpec.validate(prefix); err != nil {
		return err
	}
	for _, k := range []struct {
		field string
		err   error
	}{
		{"hysteresis", errOf(dtm.NewToggleController(0, n.Hysteresis, 0))},
		{"throttle", errOf(dtm.NewToggleController(0, 0, n.Throttle))},
		{"kp", errOf(dtm.NewPIController(0, n.Kp, 0, 0))},
		{"ki", errOf(dtm.NewPIController(0, 0, n.Ki, 0))},
		{"minScale", errOf(dtm.NewPIController(0, 0, 0, n.MinScale))},
	} {
		if k.err != nil {
			return fieldErr(prefix+"."+k.field, "%v", k.err)
		}
	}
	return nil
}

func validateStreamFlow(r *Request) error {
	return r.Stream.validate("stream")
}

// checkPolicy validates the request's Policy field against the flow's
// policy family.
func (fs *flowSpec) checkPolicy(r *Request) error {
	if fs.onlinePolicy {
		if _, err := stream.ParsePolicy(r.Policy); err != nil {
			return fieldErr("policy", "%v", err)
		}
		return nil
	}
	if _, err := r.policy(); err != nil {
		return fieldErr("policy", "%v", err)
	}
	return nil
}
