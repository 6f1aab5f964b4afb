package thermalsched

import (
	"strings"

	"thermalsched/internal/scenario"
)

// Synthetic-scenario types. A ScenarioSpec describes a seeded random
// workload — task graph plus heterogeneous platform — that any
// graph-consuming flow can run instead of a paper benchmark; see
// Request.Scenario and FlowGenerate.
type (
	// ScenarioSpec is the JSON-serializable description of one
	// synthetic scenario. The zero value (plus a seed) is a valid spec;
	// unset fields take documented defaults. Seeds are used verbatim —
	// zero is an ordinary seed, never rewritten.
	ScenarioSpec = scenario.Spec
	// ScenarioGraphParams parameterizes the generated task graph.
	ScenarioGraphParams = scenario.GraphParams
	// ScenarioPlatformParams parameterizes the generated platform.
	ScenarioPlatformParams = scenario.PlatformParams
	// Scenario is a fully generated workload: graph, library, platform.
	Scenario = scenario.Scenario
	// ScenarioSummary reports a generated scenario's realized stats.
	ScenarioSummary = scenario.Summary
)

// Scenario graph shapes and platform layouts.
const (
	ScenarioShapeLayered        = scenario.ShapeLayered
	ScenarioShapeSeriesParallel = scenario.ShapeSeriesParallel
	ScenarioLayoutGrid          = scenario.LayoutGrid
	ScenarioLayoutRow           = scenario.LayoutRow
)

// GenerateScenario builds the scenario described by the spec. It is
// the typed counterpart of Run with FlowGenerate; the same spec always
// generates an identical scenario.
func GenerateScenario(spec ScenarioSpec) (*Scenario, error) {
	return scenario.Generate(spec)
}

// ScenarioReport is the FlowGenerate payload: the generated scenario's
// summary statistics plus its canonical serializations, ready to be
// saved or shipped back through any input path (TG parses with the .tg
// reader, Lib with the .lib reader, Graph feeds Request.Graph).
type ScenarioReport struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	ScenarioSummary
	// TG is the task graph in the repository's .tg text format.
	TG string `json:"tg"`
	// Lib is the technology library in the .lib text format.
	Lib string `json:"lib"`
	// Graph is the task graph as an inline request spec.
	Graph *GraphSpec `json:"graphSpec"`
}

// scenarioReport serializes a generated scenario into the response
// payload.
func scenarioReport(sc *Scenario) (*ScenarioReport, error) {
	var tg, lib strings.Builder
	if err := sc.Graph.Write(&tg); err != nil {
		return nil, err
	}
	if err := sc.Lib.Write(&lib); err != nil {
		return nil, err
	}
	return &ScenarioReport{
		Name:            sc.Graph.Name,
		Fingerprint:     sc.Fingerprint,
		ScenarioSummary: sc.Summarize(),
		TG:              tg.String(),
		Lib:             lib.String(),
		Graph:           GraphSpecOf(sc.Graph),
	}, nil
}

// DefaultScenarioCacheSize bounds the Engine's generated-scenario
// cache. A campaign touches each scenario once per compared policy, so
// the cache only needs to hold a campaign's working set.
const DefaultScenarioCacheSize = 128

// scenarioFor returns the (possibly cached) scenario for a spec, which
// Request.Validate has checked; Generate checks it again on a miss.
func (e *Engine) scenarioFor(spec ScenarioSpec) (*Scenario, error) {
	fp := spec.Fingerprint()
	if sc, ok := e.scenarios.Get(fp); ok {
		return sc, nil
	}
	sc, err := scenario.Generate(spec)
	if err != nil {
		return nil, err
	}
	e.scenarios.Put(fp, sc)
	return sc, nil
}

// ScenarioCacheStats reports the generated-scenario cache's hit/miss
// counters and current size, for observability and tests.
func (e *Engine) ScenarioCacheStats() (hits, misses uint64, size int) {
	return e.scenarios.Stats()
}

// runGenerateFlow materializes the requested scenario and serializes it
// into the response.
func (e *Engine) runGenerateFlow(req *Request) (*Response, error) {
	sc, err := e.scenarioFor(*req.Scenario)
	if err != nil {
		return nil, err
	}
	report, err := scenarioReport(sc)
	if err != nil {
		return nil, err
	}
	return &Response{
		Flow:        FlowGenerate,
		Graph:       sc.Graph.Name,
		Fingerprint: sc.Fingerprint,
		Scenario:    report,
	}, nil
}
