package thermalsched

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites every golden file from current behavior. Run it only
// when a change to a flow's output is intentional.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files from current behavior")

type goldenCase struct {
	name string
	req  Request
}

// goldenCases pins every flow. The simulate and stream cases span
// every controller kind and policy that existed before the shared
// coloop core, plus the corners that exercise its machinery
// (conditional branches, warm start, multi-replica fan-out, sub-unity
// duration factors), plus the proactive admit and zigzag supervisors.
// The admit cases pin the admission-denial counts at every scale: a
// backlogged 16-PE platform with denials in the 10⁵ range, and a hold
// so short (retryAfter 1e-300) that t+retryAfter rounds to t, where a
// denial does not outlast the query that made it. The tiny hold is
// pinned twice: once under the stream dispatcher and once under the
// schedule executor's simulate flow. The zigzag supervisor is pinned
// under both dispatchers too: its hold runs to the end of the cooling
// gap, which can outlast the sensing step it was given in. The Bm1/Bm2
// zigzag runs never deny a start (each queue head starts at its
// predecessor's completion, outside any gap); the generated scenario
// does, so it pins the executor's hold rule under zigzag.
//
// The platform cases pin every benchmark under the thermal ASP and
// the baseline, Gantt chart included. The cosynthesis cases pin the
// benchmark shape (Bm1 capped at 4 PEs with 2 GA generations,
// floorplan text included), one uncapped run (Bm2 under h3, cheap
// because the power heuristic skips the thermal inquiries), and Bm4 at
// the benchmark shape, whose short GA leaves the floorplanner's
// shape-curve tie-breaks visible in the chosen layout. The generate
// and campaign cases pin small instances of the generated-input flows;
// campaign_controllers runs every simulate controller kind, reactive
// and proactive, through the controller axis and its admit reference.
func goldenCases() []goldenCase {
	condScenario := ScenarioSpec{
		Name: "golden-cond",
		Seed: 5,
		Graph: ScenarioGraphParams{
			Tasks:         24,
			BranchDensity: 0.4,
		},
	}
	// backlog is the online benchmark's shape: 16 PEs under bursty
	// arrivals, busy enough that admission holds pile up.
	backlog := func(s StreamSpec) *StreamSpec {
		s.MinFactor = 0.8
		s.Replicas = 2
		s.Arrivals = StreamArrivalParams{Horizon: 600, Sources: 8, Rate: 0.2, BurstMean: 2}
		s.Platform = ScenarioPlatformParams{PEs: 16}
		return &s
	}
	cases := []goldenCase{
		{"simulate_bm1_toggle", Request{Flow: FlowSimulate, Benchmark: "Bm1",
			Simulate: &SimulateSpec{Controller: "toggle", Replicas: 3, MinFactor: 0.85, Seed: 7}}},
		{"simulate_bm2_pi_warm", Request{Flow: FlowSimulate, Benchmark: "Bm2",
			Simulate: &SimulateSpec{Controller: "pi", Replicas: 2, MinFactor: 0.9, Seed: 11, WarmStart: true}}},
		{"simulate_bm3_none", Request{Flow: FlowSimulate, Benchmark: "Bm3",
			Simulate: &SimulateSpec{Controller: "none"}}},
		{"simulate_scenario_conditional", Request{Flow: FlowSimulate, Scenario: &condScenario,
			Simulate: &SimulateSpec{Controller: "toggle", Replicas: 3, MinFactor: 0.7, Seed: 3,
				Conditional: true, WarmStart: true}}},
		{"stream_fifo", Request{Flow: FlowStream, Stream: &StreamSpec{Seed: 2, SimSeed: 9, MinFactor: 0.8, Replicas: 2},
			Policy: StreamPolicyFIFO}},
		{"stream_random", Request{Flow: FlowStream, Stream: &StreamSpec{Seed: 2, SimSeed: 9, MinFactor: 0.8, Replicas: 2},
			Policy: StreamPolicyRandom}},
		{"stream_coolest", Request{Flow: FlowStream, Stream: &StreamSpec{Seed: 4, SimSeed: 1, MinFactor: 0.75, Replicas: 2},
			Policy: StreamPolicyCoolest}},
		{"stream_greedy", Request{Flow: FlowStream, Stream: &StreamSpec{Seed: 4, SimSeed: 1, MinFactor: 0.75, Replicas: 2},
			Policy: StreamPolicyGreedy}},
		{"stream_admit_backlog", Request{Flow: FlowStream, Stream: backlog(StreamSpec{Seed: 3, SimSeed: 5}),
			Policy: StreamPolicyAdmit}},
		{"stream_zigzag", Request{Flow: FlowStream, Stream: backlog(StreamSpec{Seed: 6, SimSeed: 2}),
			Policy: StreamPolicyZigzag}},
		{"stream_admit_tiny_retry", Request{Flow: FlowStream, Stream: backlog(StreamSpec{Seed: 2, SimSeed: 5, SupervisorSpec: SupervisorSpec{RetryAfter: 1e-300}}),
			Policy: StreamPolicyAdmit}},
		{"simulate_bm1_admit", Request{Flow: FlowSimulate, Benchmark: "Bm1",
			Simulate: &SimulateSpec{Controller: "admit", Replicas: 2, MinFactor: 0.85, Seed: 13}}},
		{"simulate_bm1_admit_tiny_retry", Request{Flow: FlowSimulate, Benchmark: "Bm1",
			Simulate: &SimulateSpec{Controller: "admit", Replicas: 2, MinFactor: 0.85, Seed: 13,
				SupervisorSpec: SupervisorSpec{RetryAfter: 1e-300}}}},
		{"simulate_bm1_zigzag", Request{Flow: FlowSimulate, Benchmark: "Bm1",
			Simulate: &SimulateSpec{Controller: "zigzag", Replicas: 2, MinFactor: 0.85, Seed: 13}}},
		{"simulate_bm2_zigzag_warm", Request{Flow: FlowSimulate, Benchmark: "Bm2",
			Simulate: &SimulateSpec{Controller: "zigzag", Replicas: 2, MinFactor: 0.85, Seed: 13, WarmStart: true}}},
		{"simulate_scenario_zigzag", Request{Flow: FlowSimulate, Scenario: &ScenarioSpec{Seed: 5,
			Graph: ScenarioGraphParams{Tasks: 40}, Platform: ScenarioPlatformParams{PEs: 8}},
			Simulate: &SimulateSpec{Controller: "zigzag", Replicas: 2, MinFactor: 0.8, Seed: 5}}},
		{"cosynthesis_bm1_capped", Request{Flow: FlowCoSynthesis, Benchmark: "Bm1",
			MaxPEs: 4, FloorplanGenerations: 2, IncludeGantt: true}},
		{"cosynthesis_bm2_h3", Request{Flow: FlowCoSynthesis, Benchmark: "Bm2",
			Policy: "heuristic3"}},
		{"cosynthesis_bm4_capped", Request{Flow: FlowCoSynthesis, Benchmark: "Bm4",
			MaxPEs: 4, FloorplanGenerations: 2}},
		{"generate_layered", Request{Flow: FlowGenerate, Scenario: &ScenarioSpec{
			Seed: 4, Graph: ScenarioGraphParams{Tasks: 30, Shape: "layered"}}}},
		{"generate_series_parallel", Request{Flow: FlowGenerate, Scenario: &ScenarioSpec{
			Seed: 4, Graph: ScenarioGraphParams{Tasks: 30, Shape: "series-parallel"},
			Platform: ScenarioPlatformParams{PEs: 6, MinSpeed: 0.5, MaxSpeed: 2, Layout: "row"}}}},
		{"generate_conditional", Request{Flow: FlowGenerate, Scenario: &condScenario}},
		{"campaign_static", Request{Flow: FlowCampaign, Campaign: &CampaignSpec{
			Scenarios: 3, Seed: 2, MinTasks: 15, MaxTasks: 30}}},
		{"campaign_simulate", Request{Flow: FlowCampaign, Campaign: &CampaignSpec{
			Scenarios: 2, Seed: 5, MinTasks: 15, MaxTasks: 25,
			Simulate: &SimulateSpec{Replicas: 2, MinFactor: 0.8, Seed: 3}}}},
		{"campaign_stream", Request{Flow: FlowCampaign, Campaign: &CampaignSpec{
			Scenarios: 2, Seed: 7, Stream: &StreamSpec{Replicas: 2, MinFactor: 0.8}}}},
		{"campaign_controllers", Request{Flow: FlowCampaign, Campaign: &CampaignSpec{
			Scenarios: 3, Seed: 1, MinTasks: 20, MaxTasks: 40,
			Controllers: []string{"toggle", "pi", "none", "admit", "zigzag"}}}},
	}
	for _, b := range []string{"Bm1", "Bm2", "Bm3", "Bm4"} {
		for _, p := range []Policy{ThermalAware, Baseline} {
			cases = append(cases, goldenCase{"platform_" + strings.ToLower(b) + "_" + p.String(),
				Request{Flow: FlowPlatform, Benchmark: b, Policy: p.String(), IncludeGantt: true}})
		}
	}
	return cases
}

// TestClosedLoopGolden pins every flow byte-for-byte against checked-in
// responses: a refactor must be behavior-preserving on every spec. The
// name dates from the first cases, which pinned the closed-loop flows
// across the internal/coloop extraction. ElapsedMS is zeroed — it is
// documented as excluded from the byte-identity contract.
func TestClosedLoopGolden(t *testing.T) {
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := engine.Run(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			resp.ElapsedMS = 0
			got, err := json.MarshalIndent(resp, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+".json", append(got, '\n'))
		})
	}
}

// checkGolden compares got byte-for-byte with testdata/golden/name, or
// rewrites that file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from the golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestPaperTablesGolden pins Engine.PaperTables' rendering of the
// paper's Tables 1–3 byte-for-byte as cmd/tables prints them by
// default (20 GA generations inside co-synthesis).
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper tables skipped in -short mode")
	}
	tabs, err := testEngine(t).PaperTables(context.Background(), 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tables.txt", []byte(tabs.String()))
}

// TestScalingTableGolden pins Engine.ScalingTable's default study on a
// fresh engine: every column but the wall-clock SchedMillis, which is
// zeroed. The hit/miss columns are kept, so each row's one model-cache
// miss is pinned too.
func TestScalingTableGolden(t *testing.T) {
	tab, err := testEngine(t).ScalingTable(context.Background(), nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		tab.Rows[i].SchedMillis = 0
	}
	got, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scaling.json", append(got, '\n'))
}
