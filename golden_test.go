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
// denial does not outlast the query that made it.
//
// The platform cases pin every benchmark under the thermal ASP and
// the baseline, Gantt chart included. The cosynthesis cases pin the
// benchmark shape (Bm1 capped at 4 PEs with 2 GA generations,
// floorplan text included), one uncapped run (Bm2 under h3, cheap
// because the power heuristic skips the thermal inquiries), and Bm4 at
// the benchmark shape, whose short GA leaves the floorplanner's
// shape-curve tie-breaks visible in the chosen layout. The sweep,
// generate and campaign cases pin one small instance of each
// generated-input flow.
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
	backlog := func(s StreamSpec) StreamSpec {
		s.MinFactor = 0.8
		s.Replicas = 2
		s.Arrivals = StreamArrivalParams{Horizon: 600, Sources: 8, Rate: 0.2, BurstMean: 2}
		s.Platform = ScenarioPlatformParams{PEs: 16}
		return s
	}
	cases := []goldenCase{
		{"simulate_bm1_toggle", NewRequest(FlowSimulate, WithBenchmark("Bm1"),
			WithSimulate(SimulateSpec{Controller: "toggle", Replicas: 3, MinFactor: 0.85, Seed: 7}))},
		{"simulate_bm2_pi_warm", NewRequest(FlowSimulate, WithBenchmark("Bm2"),
			WithSimulate(SimulateSpec{Controller: "pi", Replicas: 2, MinFactor: 0.9, Seed: 11, WarmStart: true}))},
		{"simulate_bm3_none", NewRequest(FlowSimulate, WithBenchmark("Bm3"),
			WithSimulate(SimulateSpec{Controller: "none"}))},
		{"simulate_scenario_conditional", NewRequest(FlowSimulate, WithScenario(condScenario),
			WithSimulate(SimulateSpec{Controller: "toggle", Replicas: 3, MinFactor: 0.7, Seed: 3,
				Conditional: true, WarmStart: true}))},
		{"stream_fifo", NewRequest(FlowStream, WithStream(StreamSpec{Seed: 2, SimSeed: 9, MinFactor: 0.8, Replicas: 2}),
			func(r *Request) { r.Policy = StreamPolicyFIFO })},
		{"stream_random", NewRequest(FlowStream, WithStream(StreamSpec{Seed: 2, SimSeed: 9, MinFactor: 0.8, Replicas: 2}),
			func(r *Request) { r.Policy = StreamPolicyRandom })},
		{"stream_coolest", NewRequest(FlowStream, WithStream(StreamSpec{Seed: 4, SimSeed: 1, MinFactor: 0.75, Replicas: 2}),
			func(r *Request) { r.Policy = StreamPolicyCoolest })},
		{"stream_greedy", NewRequest(FlowStream, WithStream(StreamSpec{Seed: 4, SimSeed: 1, MinFactor: 0.75, Replicas: 2}),
			func(r *Request) { r.Policy = StreamPolicyGreedy })},
		{"stream_admit_backlog", NewRequest(FlowStream, WithStream(backlog(StreamSpec{Seed: 3, SimSeed: 5})),
			func(r *Request) { r.Policy = StreamPolicyAdmit })},
		{"stream_zigzag", NewRequest(FlowStream, WithStream(backlog(StreamSpec{Seed: 6, SimSeed: 2})),
			func(r *Request) { r.Policy = StreamPolicyZigzag })},
		{"stream_admit_tiny_retry", NewRequest(FlowStream, WithStream(backlog(StreamSpec{Seed: 2, SimSeed: 5, SupervisorSpec: SupervisorSpec{RetryAfter: 1e-300}})),
			func(r *Request) { r.Policy = StreamPolicyAdmit })},
		{"simulate_bm1_admit", NewRequest(FlowSimulate, WithBenchmark("Bm1"),
			WithSimulate(SimulateSpec{Controller: "admit", Replicas: 2, MinFactor: 0.85, Seed: 13}))},
		{"cosynthesis_bm1_capped", NewRequest(FlowCoSynthesis, WithBenchmark("Bm1"),
			WithMaxPEs(4), WithFloorplanGenerations(2), WithGantt())},
		{"cosynthesis_bm2_h3", NewRequest(FlowCoSynthesis, WithBenchmark("Bm2"),
			WithPolicy(MinTaskEnergy))},
		{"cosynthesis_bm4_capped", NewRequest(FlowCoSynthesis, WithBenchmark("Bm4"),
			WithMaxPEs(4), WithFloorplanGenerations(2))},
		{"sweep_3", NewRequest(FlowSweep, WithSweepCount(3), WithSeed(3))},
		{"generate_layered", NewRequest(FlowGenerate, WithScenario(ScenarioSpec{
			Seed: 4, Graph: ScenarioGraphParams{Tasks: 30, Shape: "layered"}}))},
		{"generate_series_parallel", NewRequest(FlowGenerate, WithScenario(ScenarioSpec{
			Seed: 4, Graph: ScenarioGraphParams{Tasks: 30, Shape: "series-parallel"},
			Platform: ScenarioPlatformParams{PEs: 6, MinSpeed: 0.5, MaxSpeed: 2, Layout: "row"}}))},
		{"generate_conditional", NewRequest(FlowGenerate, WithScenario(condScenario))},
		{"campaign_static", NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
			Scenarios: 3, Seed: 2, MinTasks: 15, MaxTasks: 30}))},
		{"campaign_simulate", NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
			Scenarios: 2, Seed: 5, MinTasks: 15, MaxTasks: 25,
			Simulate: &SimulateSpec{Replicas: 2, MinFactor: 0.8, Seed: 3}}))},
		{"campaign_stream", NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
			Scenarios: 2, Seed: 7, Stream: &StreamSpec{Replicas: 2, MinFactor: 0.8}}))},
	}
	for _, b := range []string{"Bm1", "Bm2", "Bm3", "Bm4"} {
		for _, p := range []Policy{ThermalAware, Baseline} {
			cases = append(cases, goldenCase{"platform_" + strings.ToLower(b) + "_" + p.String(),
				NewRequest(FlowPlatform, WithBenchmark(b), WithPolicy(p), WithGantt())})
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
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", tc.name+".json")
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
				t.Fatalf("missing golden (run go test -run ClosedLoopGolden -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: response diverged from the pre-refactor golden\ngot:\n%s\nwant:\n%s",
					tc.name, got, want)
			}
		})
	}
}
