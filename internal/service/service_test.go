package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"thermalsched"
	"thermalsched/internal/jobs"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	svc, err := New(newEngine(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, svc)
}

func newEngine(t *testing.T) *thermalsched.Engine {
	t.Helper()
	engine, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// serve serves svc until the test ends.
func serve(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// End-to-end: a platform-flow scheduling request over HTTP/JSON.
func TestServeRunPlatform(t *testing.T) {
	srv := testServer(t, Config{})
	resp, body := post(t, srv.URL+"/v1/run",
		`{"flow":"platform","benchmark":"Bm1","policy":"thermal"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out thermalsched.Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	if out.Flow != thermalsched.FlowPlatform || out.Graph != "Bm1" || out.Policy != "thermal" {
		t.Errorf("response header wrong: %+v", out)
	}
	if out.Metrics == nil || !out.Metrics.Feasible {
		t.Errorf("expected a feasible Bm1 schedule, got %+v", out.Metrics)
	}
	if out.Metrics.MaxTemp <= 45 {
		t.Errorf("max temp %v not above ambient", out.Metrics.MaxTemp)
	}
	if len(out.PerPE) != 4 {
		t.Errorf("platform response has %d PEs, want 4", len(out.PerPE))
	}
}

func TestServeBatch(t *testing.T) {
	srv := testServer(t, Config{})
	resp, body := post(t, srv.URL+"/v1/batch",
		`[{"flow":"platform","benchmark":"Bm1"},{"flow":"platform","benchmark":"Bm2","policy":"h3"}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out []thermalsched.Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding batch: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("batch returned %d entries", len(out))
	}
	for i, r := range out {
		if r.Error != "" || r.Metrics == nil {
			t.Errorf("batch entry %d failed: %+v", i, r)
		}
	}
	if out[0].Graph != "Bm1" || out[1].Graph != "Bm2" {
		t.Errorf("batch order not preserved: %s, %s", out[0].Graph, out[1].Graph)
	}
}

// End-to-end: the closed-loop simulate flow over HTTP/JSON.
func TestServeRunSimulate(t *testing.T) {
	srv := testServer(t, Config{})
	resp, body := post(t, srv.URL+"/v1/run",
		`{"flow":"simulate","benchmark":"Bm1","policy":"thermal","simulate":{"replicas":2,"seed":3,"minFactor":0.8}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out thermalsched.Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	s := out.Simulate
	if s == nil {
		t.Fatalf("simulate response missing report: %s", body)
	}
	if s.Replicas != 2 || s.Controller != "toggle" {
		t.Errorf("report header wrong: %+v", s)
	}
	if s.Makespan.Max < s.Makespan.Min || s.Makespan.Mean <= 0 {
		t.Errorf("degenerate makespan stats: %+v", s.Makespan)
	}
	if s.PeakTempC.Min <= 45 {
		t.Errorf("peak temp %v not above ambient", s.PeakTempC.Min)
	}
}

// failingEngine stands in for an Engine whose runs fail while the
// client is still connected; it checks requests like the real one.
type failingEngine struct {
	*thermalsched.Engine
	err error
}

func (f *failingEngine) RunChecked(context.Context, *thermalsched.Checked) (*thermalsched.Response, error) {
	return nil, f.err
}

func (f *failingEngine) RunBatch(context.Context, []*thermalsched.Checked) ([]*thermalsched.Response, error) {
	return nil, f.err
}

// Regression: an engine-level batch failure with a live client must
// surface as a 500 JSON error envelope, never as HTTP 200 with a null
// body.
func TestServeBatchEngineFailure(t *testing.T) {
	svc, err := newWith(&failingEngine{Engine: newEngine(t), err: errors.New("engine exploded")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, svc)

	resp, body := post(t, srv.URL+"/v1/batch", `[{"flow":"platform","benchmark":"Bm1"}]`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, body)
	}
	if strings.TrimSpace(string(body)) == "null" {
		t.Fatal("batch failure produced a null body")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("missing error envelope: %s", body)
	}
	if !strings.Contains(e.Error, "engine exploded") {
		t.Errorf("envelope lost the cause: %q", e.Error)
	}
}

func TestServeValidationErrors(t *testing.T) {
	srv := testServer(t, Config{MaxBatch: 2})
	cases := []struct {
		path, body string
	}{
		{"/v1/run", `{`},                                                       // malformed JSON
		{"/v1/run", `{"flow":"warp"}`},                                         // unknown flow
		{"/v1/run", `{"flow":"platform"}`},                                     // no graph source
		{"/v1/run", `{"flow":"platform","benchmark":"Bm9"}`},                   // unknown benchmark
		{"/v1/run", `{"flow":"platform","benchmark":"Bm1","bogusKnob":1}`},     // unknown field
		{"/v1/run", `{"flow":"platform","benchmark":"Bm1","solver":"sparse"}`}, // the removed solver knob
		{"/v1/batch", `[]`},                                                    // empty batch
		{"/v1/batch", `[{"flow":"platform","benchmark":"Bm1"},{"flow":"x","benchmark":"Bm1"}]`},
		{"/v1/batch", `[{"flow":"platform","benchmark":"Bm1"},{"flow":"platform","benchmark":"Bm2"},{"flow":"platform","benchmark":"Bm3"}]`}, // over MaxBatch
	}
	for _, tc := range cases {
		resp, body := post(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %q: status %d, want 400 (%s)", tc.path, tc.body, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s %q: missing error envelope: %s", tc.path, tc.body, body)
		}
	}
}

// A candidate PE type the input's library lacks is the client's fault,
// so the run answers 400 naming the field rather than 500: Check finds
// it against the engine's library, and the flow finds it against a
// generated scenario's palette, which only exists once the input
// resolves.
func TestServeRunUnknownCandidateType(t *testing.T) {
	srv := testServer(t, Config{})
	for _, body := range []string{
		`{"flow":"cosynthesis","benchmark":"Bm1","candidateTypes":["nope"]}`,
		`{"flow":"cosynthesis","scenario":{"seed":1,"graph":{"tasks":8}},"candidateTypes":["nope"]}`,
	} {
		resp, out := post(t, srv.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", body, resp.StatusCode, out)
		}
		var e struct {
			Error string `json:"error"`
			Field string `json:"field"`
		}
		if err := json.Unmarshal(out, &e); err != nil {
			t.Fatalf("decoding error envelope: %v\n%s", err, out)
		}
		if e.Field != "candidateTypes" || !strings.Contains(e.Error, `"nope"`) {
			t.Errorf("%s: error envelope %+v, want field candidateTypes naming \"nope\"", body, e)
		}
	}
}

func TestServeHealth(t *testing.T) {
	srv := testServer(t, Config{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("health status %v", h["status"])
	}
	// All four engine stat families must be reported: the model cache,
	// the scenario cache, the stream cache, and the search memo.
	for _, key := range []string{
		"cacheHits", "cacheMisses", "cacheSize",
		"scenarioCacheHits", "scenarioCacheMisses", "scenarioCacheSize",
		"streamCacheHits", "streamCacheMisses", "streamCacheSize",
		"searchEvals", "searchMemoHits",
	} {
		if _, ok := h[key]; !ok {
			t.Errorf("healthz missing %q: %v", key, h)
		}
	}
}

// Every stream request resolves its workload through the engine's
// stream cache, so two identical requests read one miss and one hit on
// both /healthz and /metrics.
func TestServeStreamCacheStats(t *testing.T) {
	srv := testServer(t, Config{})
	for i := 0; i < 2; i++ {
		resp, body := post(t, srv.URL+"/v1/run", `{"flow":"stream","stream":{"seed":1,"replicas":1}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream run %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthBody
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.StreamCacheHits != 1 || h.StreamCacheMisses != 1 || h.StreamCacheSize != 1 {
		t.Errorf("healthz stream cache hits/misses/size %d/%d/%d, want 1/1/1",
			h.StreamCacheHits, h.StreamCacheMisses, h.StreamCacheSize)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	_, err = metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(metrics.String(), "\n")
	for _, want := range []string{
		"thermschedd_stream_cache_hits_total 1",
		"thermschedd_stream_cache_misses_total 1",
		"thermschedd_stream_cache_entries 1",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Regression: a body over MaxBodyBytes must surface as 413 Content Too
// Large, not a generic 400 — the cap is a policy limit, and clients
// need to distinguish "shrink your request" from "fix your request".
func TestServeOversizedBody413(t *testing.T) {
	srv := testServer(t, Config{MaxBodyBytes: 64})
	big := `{"flow":"platform","benchmark":"Bm1","policy":"` + strings.Repeat("x", 256) + `"}`
	for _, path := range []string{"/v1/run", "/v1/batch", "/v1/jobs"} {
		resp, body := post(t, srv.URL+path, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got status %d, want 413 (%s)", path, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: missing error envelope: %s", path, body)
		}
	}
}

func TestServeMethodNotAllowed(t *testing.T) {
	srv := testServer(t, Config{})
	resp, err := http.Get(srv.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run status %d, want 405", resp.StatusCode)
	}
}

// countingEngine is a real engine that counts its Check calls. While
// gate is open, RunChecked waits for it to close.
type countingEngine struct {
	*thermalsched.Engine
	checks atomic.Int64
	gate   chan struct{}
}

func (c *countingEngine) Check(req thermalsched.Request) (*thermalsched.Checked, error) {
	c.checks.Add(1)
	return c.Engine.Check(req)
}

func (c *countingEngine) RunChecked(ctx context.Context, ch *thermalsched.Checked) (*thermalsched.Response, error) {
	select {
	case <-c.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return c.Engine.RunChecked(ctx, ch)
}

// Each surface checks a request exactly once and hands the checked
// value on: one Check per /v1/run request, per /v1/batch entry and per
// /v1/jobs submit, a coalesced or stored-result submit included.
func TestEachSurfaceChecksOnce(t *testing.T) {
	eng := &countingEngine{Engine: newEngine(t), gate: make(chan struct{})}
	svc, err := newWith(eng, Config{Jobs: jobs.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, svc)
	var open sync.Once
	release := func() { open.Do(func() { close(eng.gate) }) }
	t.Cleanup(release)
	want := int64(0)
	expect := func(surface string, n int64) {
		t.Helper()
		want += n
		if got := eng.checks.Load(); got != want {
			t.Errorf("after %s: %d checks in all, want %d", surface, got, want)
		}
	}

	body := `{"flow":"platform","benchmark":"Bm1"}`
	_, first := submitJob(t, srv.URL, body)
	expect("a fresh job submit", 1)
	_, twin := submitJob(t, srv.URL, body)
	if !twin.Coalesced {
		t.Errorf("second submit not coalesced onto the first: %+v", twin)
	}
	expect("a coalesced job submit", 1)
	release()
	if done := pollJob(t, srv.URL, first.ID); done.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	_, stored := submitJob(t, srv.URL, body)
	if stored.State != jobs.StateDone || !stored.FromJournal {
		t.Errorf("third submit not served from the stored result: %+v", stored)
	}
	expect("a stored-result job submit", 1)

	if resp, out := post(t, srv.URL+"/v1/run", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, out)
	}
	expect("a run", 1)
	batch := `[{"flow":"platform","benchmark":"Bm1"},{"flow":"platform","benchmark":"Bm2"},{"flow":"generate","scenario":{"seed":1}}]`
	if resp, out := post(t, srv.URL+"/v1/batch", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, out)
	}
	expect("a 3-entry batch", 3)
}
