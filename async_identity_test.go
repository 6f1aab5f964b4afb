package thermalsched_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermalsched"
	"thermalsched/internal/jobs"
	"thermalsched/internal/service"
)

// asyncFlows is one representative, fully-seeded request per flow the
// engine supports. The async job tier must return byte-identical
// responses for every one of them.
func asyncFlows() map[string]thermalsched.Request {
	return map[string]thermalsched.Request{
		"platform": {Flow: thermalsched.FlowPlatform,
			Benchmark: "Bm1", Policy: "thermal"},
		"cosynthesis": {Flow: thermalsched.FlowCoSynthesis,
			Benchmark: "Bm1", Policy: "heuristic3",
			FloorplanGenerations: 4},
		"simulate": {Flow: thermalsched.FlowSimulate,
			Benchmark: "Bm2", Policy: "thermal",
			Simulate: &thermalsched.SimulateSpec{Replicas: 2, Seed: 3, MinFactor: 0.8}},
		"generate": {Flow: thermalsched.FlowGenerate,
			Scenario: &thermalsched.ScenarioSpec{
				Seed: 11,
				Graph: thermalsched.ScenarioGraphParams{
					Tasks: 30, Shape: thermalsched.ScenarioShapeSeriesParallel, BranchDensity: 0.4,
				},
				Platform: thermalsched.ScenarioPlatformParams{PEs: 5, MinSpeed: 0.6, MaxSpeed: 2.0},
			}},
		"stream": {Flow: thermalsched.FlowStream,
			Stream: &thermalsched.StreamSpec{
				Seed: 3, MinFactor: 0.8, Replicas: 2,
			}},
		"campaign": {Flow: thermalsched.FlowCampaign,
			Campaign: &thermalsched.CampaignSpec{
				Scenarios: 3, Seed: 9, MinTasks: 20, MaxTasks: 30,
				Policies: []string{"h3", "thermal"},
			}},
		"simulate-admit": {Flow: thermalsched.FlowSimulate,
			Benchmark: "Bm2", Policy: "thermal",
			Simulate: &thermalsched.SimulateSpec{
				Controller: "admit", Replicas: 2, Seed: 3, MinFactor: 0.8, WarmStart: true,
			}},
		"stream-zigzag": streamPolicyRequest(thermalsched.StreamPolicyZigzag),
	}
}

// streamPolicyRequest builds the seeded stream request the async suite
// runs under one named online policy.
func streamPolicyRequest(policy string) thermalsched.Request {
	return thermalsched.Request{Flow: thermalsched.FlowStream,
		Stream: &thermalsched.StreamSpec{
			Seed: 3, MinFactor: 0.8, Replicas: 2,
		}, Policy: policy}
}

func normalizeResp(t *testing.T, resp *thermalsched.Response) string {
	t.Helper()
	resp.ElapsedMS = 0
	blob, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// submitAndWait drives the job API over HTTP: POST /v1/jobs, then poll
// GET /v1/jobs/{id} to a terminal state.
func submitAndWait(t *testing.T, base string, req thermalsched.Request) jobs.Job {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !j.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", j.ID, j.State)
		}
		time.Sleep(10 * time.Millisecond)
		poll, err := http.Get(base + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(poll.Body).Decode(&j)
		poll.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if j.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", j.State, j.Error)
	}
	if j.Response == nil {
		t.Fatal("done job carries no response")
	}
	return j
}

// The async contract, end to end: for every flow, a job submitted via
// POST /v1/jobs resolves to a Response byte-identical to the
// synchronous Engine.Run, the journaled copy survives a service
// restart byte-for-byte, and the restarted service serves it without
// re-evaluating.
func TestAsyncJobIdenticalToSyncAcrossFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow async identity suite skipped in -short mode")
	}
	journal := filepath.Join(t.TempDir(), "journal.jsonl")

	engine, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(engine, service.Config{Jobs: jobs.Config{JournalPath: journal}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())

	want := map[string]string{}
	for name, req := range asyncFlows() {
		// Sync surface: POST /v1/run on the same service.
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: sync status %d", name, resp.StatusCode)
		}
		var sync thermalsched.Response
		err = json.NewDecoder(resp.Body).Decode(&sync)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[name] = normalizeResp(t, &sync)

		// Async surface: the job API.
		j := submitAndWait(t, srv.URL, req)
		if got := normalizeResp(t, j.Response); got != want[name] {
			t.Errorf("%s: async response diverges from sync:\n  sync  %.200s\n  async %.200s", name, want[name], got)
		}
	}
	srv.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same journal with a fresh engine: every flow's
	// persisted response must be served back byte-identical, with zero
	// re-evaluations.
	engine2, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := service.New(engine2, service.Config{Jobs: jobs.Config{JournalPath: journal}})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer func() {
		srv2.Close()
		svc2.Close()
	}()
	for name, req := range asyncFlows() {
		j := submitAndWait(t, srv2.URL, req)
		if !j.FromJournal {
			t.Errorf("%s: restarted service re-evaluated instead of replaying the journal", name)
		}
		if got := normalizeResp(t, j.Response); got != want[name] {
			t.Errorf("%s: journaled response diverges from sync:\n  sync    %.200s\n  journal %.200s", name, want[name], got)
		}
	}
	st := svc2.Jobs().Stats()
	if st.Counters.Evaluations != 0 {
		t.Errorf("restarted service ran %d evaluations, want 0", st.Counters.Evaluations)
	}
	if int(st.Counters.Replayed) != len(asyncFlows()) {
		t.Errorf("replayed %d journal records, want %d", st.Counters.Replayed, len(asyncFlows()))
	}
}

// scrapeMetrics fetches /metrics and returns sample name → value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("malformed metrics value %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// A duplicate submission of an identical request must pay zero extra
// engine evaluations — whether it lands while the original is still in
// flight (attached) or after it finished (served from the result
// store) — and both jobs must resolve to the same response bytes.
// Asserted through the public /metrics counters.
func TestAsyncDuplicateCoalescesToZeroExtraEvaluations(t *testing.T) {
	engine, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(engine, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer func() {
		srv.Close()
		svc.Close()
	}()

	req := thermalsched.Request{Flow: thermalsched.FlowCampaign,
		Campaign: &thermalsched.CampaignSpec{
			Scenarios: 3, Seed: 42, MinTasks: 20, MaxTasks: 30,
			Policies: []string{"h3", "thermal"},
		}}
	a := submitAndWait(t, srv.URL, req)
	b := submitAndWait(t, srv.URL, req)
	if normalizeResp(t, a.Response) != normalizeResp(t, b.Response) {
		t.Error("coalesced duplicate returned different response bytes")
	}

	m := scrapeMetrics(t, srv.URL)
	if got := m["thermschedd_jobs_submitted_total"]; got != 2 {
		t.Errorf("submitted_total %g, want 2", got)
	}
	if got := m["thermschedd_engine_evaluations_total"]; got != 1 {
		t.Errorf("evaluations_total %g, want exactly 1 — the duplicate paid for an evaluation", got)
	}
	inflight := m[`thermschedd_coalesce_hits_total{kind="inflight"}`]
	stored := m[`thermschedd_coalesce_hits_total{kind="stored"}`]
	if inflight+stored != 1 {
		t.Errorf("coalesce hits inflight=%g stored=%g, want exactly one hit", inflight, stored)
	}
}
