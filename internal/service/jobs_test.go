package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"thermalsched"
	"thermalsched/internal/jobs"
)

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j jobs.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Job{}
}

func submitJob(t *testing.T, base, body string) (*http.Response, jobs.Job) {
	t.Helper()
	resp, raw := post(t, base+"/v1/jobs", body)
	var j jobs.Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatalf("decoding job: %v\n%s", err, raw)
		}
	}
	return resp, j
}

// The full submit-then-poll lifecycle over HTTP, ending in a response
// identical in content to the synchronous path.
func TestJobSubmitPollLifecycle(t *testing.T) {
	srv := testServer(t, Config{})
	resp, j := submitJob(t, srv.URL, `{"flow":"platform","benchmark":"Bm1","policy":"thermal"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if j.ID == "" || j.Fingerprint == "" {
		t.Fatalf("job missing identity: %+v", j)
	}
	done := pollJob(t, srv.URL, j.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.Response == nil || done.Response.Graph != "Bm1" || !done.Response.Metrics.Feasible {
		t.Fatalf("job response wrong: %+v", done.Response)
	}
}

func TestJobUnknownIs404(t *testing.T) {
	srv := testServer(t, Config{})
	resp, err := http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job status %d, want 404", resp.StatusCode)
	}
}

// blockingEngine parks every evaluation until released, so tests can
// hold a worker busy and fill the queue deterministically. It checks
// requests like the real engine.
type blockingEngine struct {
	*thermalsched.Engine
	started chan string
	release chan struct{}
}

func (b *blockingEngine) RunChecked(ctx context.Context, c *thermalsched.Checked) (*thermalsched.Response, error) {
	b.started <- c.Fingerprint()
	select {
	case <-b.release:
		return &thermalsched.Response{Flow: c.Flow()}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *blockingEngine) RunBatch(context.Context, []*thermalsched.Checked) ([]*thermalsched.Response, error) {
	return nil, errors.New("unused")
}

func blockingServer(t *testing.T, cfg Config) (*httptest.Server, *blockingEngine) {
	t.Helper()
	eng := &blockingEngine{Engine: newEngine(t), started: make(chan string, 16), release: make(chan struct{})}
	svc, err := newWith(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		close(eng.release)
		srv.Close()
		svc.Close()
	})
	return srv, eng
}

func TestJobCancelEndpoint(t *testing.T) {
	srv, eng := blockingServer(t, Config{Jobs: jobs.Config{Workers: 1}})
	// Bm1 occupies the single worker; Bm2 queues and can be cancelled
	// deterministically.
	_, first := submitJob(t, srv.URL, `{"flow":"platform","benchmark":"Bm1"}`)
	<-eng.started
	_, queued := submitJob(t, srv.URL, `{"flow":"platform","benchmark":"Bm2"}`)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateCancelled {
		t.Errorf("cancelled job in state %s", j.State)
	}
	// The occupying job still completes once released.
	eng.release <- struct{}{}
	if done := pollJob(t, srv.URL, first.ID); done.State != jobs.StateDone {
		t.Errorf("first job ended %s", done.State)
	}
}

// The SSE stream delivers lifecycle frames and terminates at the
// terminal state.
func TestJobEventsSSE(t *testing.T) {
	srv := testServer(t, Config{})
	_, j := submitJob(t, srv.URL, `{"flow":"platform","benchmark":"Bm2"}`)
	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("events content type %q", ct)
	}
	var states []jobs.State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		states = append(states, ev.State)
	}
	if len(states) == 0 || states[len(states)-1] != jobs.StateDone {
		t.Fatalf("SSE lifecycle %v does not end in done", states)
	}
}

// Queue-depth backpressure surfaces as HTTP 429 with a Retry-After.
func TestJobQueueFull429(t *testing.T) {
	srv, eng := blockingServer(t, Config{Jobs: jobs.Config{Workers: 1, QueueDepth: 1}})
	// Bm1 occupies the worker; Bm2 fills the 1-deep queue; Bm3 must
	// bounce.
	submitJob(t, srv.URL, `{"flow":"platform","benchmark":"Bm1"}`)
	<-eng.started
	if resp, body := post(t, srv.URL+"/v1/jobs", `{"flow":"platform","benchmark":"Bm2"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue fill status %d: %s", resp.StatusCode, body)
	}
	resp, body := post(t, srv.URL+"/v1/jobs", `{"flow":"platform","benchmark":"Bm3"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "queue full") {
		t.Errorf("429 envelope: %s", body)
	}
}

// Per-client rate limiting: the second immediate submission from one
// client is rejected 429; a distinct client is admitted.
func TestJobRateLimit429(t *testing.T) {
	srv := testServer(t, Config{RatePerSec: 0.001, RateBurst: 1})
	do := func(client string) int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs",
			strings.NewReader(`{"flow":"platform","benchmark":"Bm1"}`))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := do("alice"); got != http.StatusAccepted {
		t.Fatalf("first submission status %d", got)
	}
	if got := do("alice"); got != http.StatusTooManyRequests {
		t.Errorf("second immediate submission status %d, want 429", got)
	}
	if got := do("bob"); got != http.StatusAccepted {
		t.Errorf("distinct client throttled: status %d", got)
	}
}

// promLine matches one non-comment Prometheus text-format sample.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[-+]?[0-9.eE+-]+)$`)

// /metrics must parse as Prometheus text format and carry the queue,
// coalescing and every engine-cache stat family.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t, Config{})
	_, j := submitJob(t, srv.URL, `{"flow":"platform","benchmark":"Bm1"}`)
	pollJob(t, srv.URL, j.ID)
	submitJob(t, srv.URL, `{"flow":"platform","benchmark":"Bm1"}`) // stored-result coalesce

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	samples := map[string]float64{}
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		if !promLine.MatchString(line) {
			t.Errorf("line not Prometheus text format: %q", line)
			continue
		}
		var name string
		var v float64
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			name = line[:i]
			fmt.Sscanf(line[i+1:], "%g", &v)
		}
		samples[name] = v
	}
	if lines < 15 {
		t.Fatalf("only %d samples exported", lines)
	}
	for _, want := range []string{
		"thermschedd_jobs_submitted_total",
		"thermschedd_engine_evaluations_total",
		`thermschedd_coalesce_hits_total{kind="stored"}`,
		"thermschedd_queue_depth",
		"thermschedd_workers_busy",
		`thermschedd_jobs{state="done"}`,
		"thermschedd_model_cache_hits_total",
		"thermschedd_scenario_cache_misses_total",
		"thermschedd_stream_cache_misses_total",
		"thermschedd_search_evals_total",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("metrics missing %s", want)
		}
	}
	if samples["thermschedd_jobs_submitted_total"] != 2 {
		t.Errorf("submitted_total %g, want 2", samples["thermschedd_jobs_submitted_total"])
	}
	if samples["thermschedd_engine_evaluations_total"] != 1 {
		t.Errorf("evaluations_total %g, want 1 (duplicate must coalesce)", samples["thermschedd_engine_evaluations_total"])
	}
	if samples[`thermschedd_coalesce_hits_total{kind="stored"}`] != 1 {
		t.Errorf("stored coalesce hits %g, want 1", samples[`thermschedd_coalesce_hits_total{kind="stored"}`])
	}
}

// A journal-backed service serves a completed job's result after a
// restart without re-evaluating, and reports the replay in /metrics.
func TestJobJournalAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	engine, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := New(engine, Config{Jobs: jobs.Config{JournalPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(svc1.Handler())
	_, j := submitJob(t, srv1.URL, `{"flow":"platform","benchmark":"Bm3"}`)
	done := pollJob(t, srv1.URL, j.ID)
	srv1.Close()
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(engine, Config{Jobs: jobs.Config{JournalPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(func() {
		srv2.Close()
		svc2.Close()
	})
	resp, j2 := submitJob(t, srv2.URL, `{"flow":"platform","benchmark":"Bm3"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit status %d", resp.StatusCode)
	}
	if j2.State != jobs.StateDone || !j2.FromJournal {
		t.Fatalf("journaled result not served without evaluation: %+v", j2)
	}
	a, _ := json.Marshal(done.Response)
	b, _ := json.Marshal(j2.Response)
	if string(a) != string(b) {
		t.Errorf("journal round trip changed the response:\n  before %s\n  after  %s", a, b)
	}
	if s := svc2.Jobs().Stats(); s.Counters.Replayed != 1 || s.Counters.Evaluations != 0 {
		t.Errorf("replay counters wrong: %+v", s.Counters)
	}
}
