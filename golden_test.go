package thermalsched

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the closed-loop golden files from current behavior.
// Run it only when a change to simulate/stream/dtm output is intentional.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files from current behavior")

// closedLoopGoldenCases spans the pre-existing simulate and stream
// surfaces: every controller kind and policy that existed before the
// shared coloop core, plus the corners that exercise its machinery
// (conditional branches, warm start, multi-replica fan-out, sub-unity
// duration factors), plus the proactive admit and zigzag supervisors.
// The admit cases pin the admission-denial counts at every
// scale: a backlogged 16-PE platform with denials in the 10⁵ range,
// and a hold so short (retryAfter 1e-300) that t+retryAfter rounds to
// t, where a denial does not outlast the query that made it.
// The dtm cases pin the open-loop replay flow under both of its
// controllers.
func closedLoopGoldenCases() []struct {
	name string
	req  Request
} {
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
	return []struct {
		name string
		req  Request
	}{
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
		{"stream_admit_tiny_retry", NewRequest(FlowStream, WithStream(backlog(StreamSpec{Seed: 2, SimSeed: 5, RetryAfter: 1e-300})),
			func(r *Request) { r.Policy = StreamPolicyAdmit })},
		{"simulate_bm1_admit", NewRequest(FlowSimulate, WithBenchmark("Bm1"),
			WithSimulate(SimulateSpec{Controller: "admit", Replicas: 2, MinFactor: 0.85, Seed: 13}))},
		{"dtm_bm1_toggle", NewRequest(FlowDTM, WithBenchmark("Bm1"),
			WithDTM(DTMSpec{Controller: "toggle", MinFactor: 0.85, SimSeed: 7}))},
		{"dtm_bm2_pi", NewRequest(FlowDTM, WithBenchmark("Bm2"),
			WithDTM(DTMSpec{Controller: "pi"}))},
	}
}

// TestClosedLoopGolden pins the simulate, stream and dtm flows byte-for-byte
// against checked-in responses captured before the internal/coloop
// extraction: the shared-core refactor must be behavior-preserving on
// every pre-existing spec. ElapsedMS is zeroed — it is documented as
// excluded from the byte-identity contract.
func TestClosedLoopGolden(t *testing.T) {
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range closedLoopGoldenCases() {
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
