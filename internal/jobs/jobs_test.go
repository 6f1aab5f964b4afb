package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermalsched"
)

// fakeEval is a controllable evaluator: it counts runs, can block
// until released, and can fail.
type fakeEval struct {
	runs    atomic.Uint64
	block   chan struct{} // non-nil: Run waits for close (or ctx)
	started chan struct{} // non-nil: Run signals entry
	err     error
}

func (f *fakeEval) Run(ctx context.Context, req thermalsched.Request) (*thermalsched.Response, error) {
	f.runs.Add(1)
	if f.started != nil {
		select {
		case f.started <- struct{}{}:
		default:
		}
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return &thermalsched.Response{Flow: req.Flow, Graph: req.Benchmark, Policy: req.Policy}, nil
}

func openTest(t *testing.T, eval Evaluator, cfg Config) *Manager {
	t.Helper()
	m, err := Open(eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func req(bench string) thermalsched.Request {
	return thermalsched.NewRequest(thermalsched.FlowPlatform, thermalsched.WithBenchmark(bench))
}

// waitState polls a job until it reaches the wanted state.
func waitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s waiting for %s (err %q)", id, j.State, want, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return Job{}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	f := &fakeEval{}
	m := openTest(t, f, Config{})
	j, err := m.Submit(req("Bm1"))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued && j.State != StateRunning {
		t.Fatalf("fresh job in state %s", j.State)
	}
	if j.Fingerprint == "" || j.ID == "" {
		t.Fatalf("job missing identity: %+v", j)
	}
	done := waitState(t, m, j.ID, StateDone)
	if done.Response == nil || done.Response.Graph != "Bm1" {
		t.Fatalf("done job missing response: %+v", done)
	}
	if done.FinishedAt == 0 || done.SubmittedAt == 0 {
		t.Errorf("timestamps missing: %+v", done)
	}
	if got := f.runs.Load(); got != 1 {
		t.Errorf("evaluator ran %d times, want 1", got)
	}
}

// Two identical submissions while the first is in flight must share
// one evaluation and one Response pointer-for-pointer.
func TestCoalesceInflight(t *testing.T) {
	f := &fakeEval{block: make(chan struct{}), started: make(chan struct{}, 1)}
	m := openTest(t, f, Config{Workers: 1})
	a, err := m.Submit(req("Bm1"))
	if err != nil {
		t.Fatal(err)
	}
	<-f.started // evaluation is running
	b, err := m.Submit(req("Bm1"))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Coalesced {
		t.Fatalf("identical in-flight submission not coalesced: %+v", b)
	}
	if b.State != StateRunning {
		t.Errorf("coalesced-onto-running job in state %s", b.State)
	}
	close(f.block)
	ja := waitState(t, m, a.ID, StateDone)
	jb := waitState(t, m, b.ID, StateDone)
	if ja.Response != jb.Response {
		t.Error("coalesced jobs do not share one Response")
	}
	if got := f.runs.Load(); got != 1 {
		t.Errorf("coalesced pair paid %d evaluations, want 1", got)
	}
	s := m.Stats()
	if s.Counters.CoalesceInflight != 1 || s.Counters.Evaluations != 1 || s.Counters.Submitted != 2 {
		t.Errorf("counters wrong: %+v", s.Counters)
	}
}

// A submission identical to a completed job is served from the stored
// result without re-evaluating.
func TestCoalesceStoredResult(t *testing.T) {
	f := &fakeEval{}
	m := openTest(t, f, Config{})
	a, _ := m.Submit(req("Bm1"))
	waitState(t, m, a.ID, StateDone)
	b, err := m.Submit(req("Bm1"))
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateDone || !b.FromJournal {
		t.Fatalf("stored-result hit not served immediately: %+v", b)
	}
	if got := f.runs.Load(); got != 1 {
		t.Errorf("repeat submission re-evaluated (%d runs)", got)
	}
	if s := m.Stats(); s.Counters.CoalesceStored != 1 {
		t.Errorf("stored-coalesce counter %d, want 1", s.Counters.CoalesceStored)
	}
}

// Requests differing only in Parallelism share a fingerprint and so
// coalesce (their responses are byte-identical by contract).
func TestCoalesceNormalizesParallelism(t *testing.T) {
	f := &fakeEval{}
	m := openTest(t, f, Config{})
	a, _ := m.Submit(thermalsched.NewRequest(thermalsched.FlowCoSynthesis,
		thermalsched.WithBenchmark("Bm1"), thermalsched.WithParallelism(1)))
	waitState(t, m, a.ID, StateDone)
	b, err := m.Submit(thermalsched.NewRequest(thermalsched.FlowCoSynthesis,
		thermalsched.WithBenchmark("Bm1"), thermalsched.WithParallelism(4)))
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateDone {
		t.Fatalf("parallelism variant not coalesced: %+v", b)
	}
	if got := f.runs.Load(); got != 1 {
		t.Errorf("parallelism variant re-evaluated (%d runs)", got)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	f := &fakeEval{block: make(chan struct{}), started: make(chan struct{}, 1)}
	m := openTest(t, f, Config{Workers: 1, QueueDepth: 1})
	defer close(f.block)
	if _, err := m.Submit(req("Bm1")); err != nil {
		t.Fatal(err)
	}
	<-f.started // worker busy; queue empty
	if _, err := m.Submit(req("Bm2")); err != nil {
		t.Fatal(err) // fills the queue
	}
	_, err := m.Submit(req("Bm3"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit returned %v, want ErrQueueFull", err)
	}
	if s := m.Stats(); s.Counters.RejectedQueue != 1 {
		t.Errorf("rejected-queue counter %d, want 1", s.Counters.RejectedQueue)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	f := &fakeEval{block: make(chan struct{}), started: make(chan struct{}, 1)}
	m := openTest(t, f, Config{Workers: 1})
	defer close(f.block)
	a, _ := m.Submit(req("Bm1"))
	<-f.started
	b, _ := m.Submit(req("Bm2")) // sits in the queue
	got, err := m.Cancel(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("cancelled job in state %s", got.State)
	}
	// Idempotent: cancelling again returns the terminal snapshot.
	again, err := m.Cancel(b.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel: %+v, %v", again, err)
	}
	// The queued evaluation must be skipped, not run.
	_ = a
	if runs := f.runs.Load(); runs != 1 {
		t.Errorf("cancelled queued evaluation still ran (%d runs)", runs)
	}
	// A fresh identical submission starts a new evaluation (the
	// cancelled fingerprint no longer coalesces).
	c, err := m.Submit(req("Bm2"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Coalesced {
		t.Error("submission coalesced onto a fully-cancelled evaluation")
	}
}

// Cancelling one coalesced sibling must not abort the shared
// evaluation; the survivor still completes.
func TestCancelCoalescedSiblingKeepsEvaluation(t *testing.T) {
	f := &fakeEval{block: make(chan struct{}), started: make(chan struct{}, 1)}
	m := openTest(t, f, Config{Workers: 1})
	a, _ := m.Submit(req("Bm1"))
	<-f.started
	b, _ := m.Submit(req("Bm1"))
	if !b.Coalesced {
		t.Fatal("second submission did not coalesce")
	}
	if _, err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	close(f.block)
	ja := waitState(t, m, a.ID, StateDone)
	if ja.Response == nil {
		t.Fatal("surviving sibling lost its response")
	}
	jb, _ := m.Get(b.ID)
	if jb.State != StateCancelled {
		t.Errorf("cancelled sibling in state %s", jb.State)
	}
}

// Cancelling the last live job aborts the running evaluation through
// the context the Engine threads into every hot loop.
func TestCancelRunningJobAbortsEvaluation(t *testing.T) {
	f := &fakeEval{block: make(chan struct{}), started: make(chan struct{}, 1)}
	m := openTest(t, f, Config{Workers: 1})
	a, _ := m.Submit(req("Bm1"))
	<-f.started
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get(a.ID)
	if j.State != StateCancelled {
		t.Fatalf("cancelled running job in state %s", j.State)
	}
	// The evaluator must observe ctx cancellation and return without
	// anyone releasing the block; the worker is then free for new
	// work (which no longer blocks).
	close(f.block)
	b, _ := m.Submit(req("Bm2"))
	waitState(t, m, b.ID, StateDone)
}

func TestFailedEvaluation(t *testing.T) {
	f := &fakeEval{err: errors.New("boom")}
	m := openTest(t, f, Config{})
	a, _ := m.Submit(req("Bm1"))
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, _ := m.Get(a.ID)
		if j.State == StateFailed {
			if j.Error != "boom" {
				t.Errorf("failure cause %q", j.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Failures are not served from the result store: a retry runs.
	b, _ := m.Submit(req("Bm1"))
	if b.State == StateFailed {
		t.Error("failed result served from store; failures must re-evaluate")
	}
}

func TestUnknownJob(t *testing.T) {
	m := openTest(t, &fakeEval{}, Config{})
	if _, err := m.Get("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Get unknown: %v", err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel unknown: %v", err)
	}
	if _, _, err := m.Subscribe("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Subscribe unknown: %v", err)
	}
}

// Subscribers see the lifecycle: current state first, then
// transitions, then channel close at terminal.
func TestSubscribeStreamsLifecycle(t *testing.T) {
	f := &fakeEval{block: make(chan struct{}), started: make(chan struct{}, 1)}
	m := openTest(t, f, Config{Workers: 1})
	a, _ := m.Submit(req("Bm1"))
	ch, cancel, err := m.Subscribe(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	<-f.started
	close(f.block)
	var states []State
	for ev := range ch {
		states = append(states, ev.State)
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("lifecycle stream %v does not end in done", states)
	}
	// A subscription to a terminal job delivers one snapshot event and
	// closes immediately.
	ch2, cancel2, err := m.Subscribe(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	ev, ok := <-ch2
	if !ok || ev.State != StateDone {
		t.Fatalf("terminal subscription got %+v ok=%t", ev, ok)
	}
	if _, ok := <-ch2; ok {
		t.Error("terminal subscription not closed after snapshot")
	}
}

// Hammer the manager from many goroutines; run under -race in CI.
func TestConcurrentSubmitGetCancel(t *testing.T) {
	f := &fakeEval{}
	m := openTest(t, f, Config{Workers: 4, QueueDepth: 1024})
	var wg sync.WaitGroup
	benches := []string{"Bm1", "Bm2", "Bm3", "Bm4"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j, err := m.Submit(req(benches[(g+i)%len(benches)]))
				if err != nil {
					continue
				}
				if i%7 == 0 {
					m.Cancel(j.ID)
				} else {
					m.Get(j.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	s := m.Stats()
	if s.Counters.Submitted != 400 {
		t.Errorf("submitted %d, want 400", s.Counters.Submitted)
	}
	// 4 distinct fingerprints: coalescing must have collapsed almost
	// everything — far fewer evaluations than submissions.
	if s.Counters.Evaluations > 100 {
		t.Errorf("%d evaluations for 400 submissions of 4 distinct requests", s.Counters.Evaluations)
	}
}

// Terminal jobs beyond MaxJobs are evicted oldest-first, and results
// referenced by no retained job go with them.
func TestEviction(t *testing.T) {
	f := &fakeEval{}
	m := openTest(t, f, Config{Workers: 1, MaxJobs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := m.Submit(thermalsched.NewRequest(thermalsched.FlowPlatform,
			thermalsched.WithBenchmark("Bm1"),
			thermalsched.WithSweepCount(i+1))) // distinct fingerprints
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, j.ID, StateDone)
		ids = append(ids, j.ID)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Error("oldest terminal job not evicted")
	}
	if _, err := m.Get(ids[3]); err != nil {
		t.Error("newest terminal job evicted")
	}
}

func TestClosedManagerRejectsSubmit(t *testing.T) {
	m, err := Open(&fakeEval{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(req("Bm1")); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Workers: -1}).Validate(); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := Open(nil, Config{}); err == nil {
		t.Error("nil evaluator accepted")
	}
}

// The journal round trip: results written by one manager are served by
// the next without re-evaluation.
func TestJournalSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	f1 := &fakeEval{}
	m1, err := Open(f1, Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m1.Submit(req("Bm1"))
	waitState(t, m1, a.ID, StateDone)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := &fakeEval{}
	m2, err := Open(f2, Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if s := m2.Stats(); s.Counters.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1", s.Counters.Replayed)
	}
	// The replayed job is still visible by its original ID.
	if _, err := m2.Get(a.ID); err != nil {
		t.Errorf("replayed job lost: %v", err)
	}
	b, err := m2.Submit(req("Bm1"))
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateDone || !b.FromJournal {
		t.Fatalf("journaled result not served: %+v", b)
	}
	if f2.runs.Load() != 0 {
		t.Errorf("journaled request re-evaluated (%d runs)", f2.runs.Load())
	}
}

// A torn final line (crash mid-append) must not poison replay.
func TestJournalSkipsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	m1, err := Open(&fakeEval{}, Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m1.Submit(req("Bm1"))
	waitState(t, m1, a.ID, StateDone)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write.
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(fh, `{"v":1,"id":"torn","finger`)
	fh.Close()

	m2, err := Open(&fakeEval{}, Config{JournalPath: path})
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	defer m2.Close()
	if s := m2.Stats(); s.Counters.Replayed != 1 {
		t.Errorf("replayed %d records, want 1 (torn line skipped)", s.Counters.Replayed)
	}
}

// A journal written while the open-loop dtm flow existed holds records
// whose request carries a "dtm" spec and whose response a "dtm" section.
// Replay decodes leniently: such a record comes back done without that
// section, and the records after it still load and serve coalescing.
func TestJournalReplaysDeletedDTMFlow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	later := req("Bm2")
	journal := `{"v":1,"id":"j-old-1","fingerprint":"6d1c0b0a4e5f3a21","flow":"dtm","state":"done",` +
		`"submittedAt":1,"startedAt":2,"finishedAt":3,` +
		`"request":{"flow":"dtm","benchmark":"Bm1","dtm":{"controller":"toggle","triggerC":80,"passes":2}},` +
		`"response":{"flow":"dtm","graph":"Bm1","policy":"thermal",` +
		`"metrics":{"totalPowerW":9.5,"maxTempC":83.29,"avgTempC":70.1,"makespan":683.4,"feasible":true,"cost":0},` +
		`"dtm":{"controller":"toggle","steps":274,"peakTempC":81.9,"throttledFraction":0.12,` +
		`"energyDelivered":610.2,"energyRequested":650.7,"slowdown":0.062},"elapsedMs":4.2}}` + "\n" +
		fmt.Sprintf(`{"v":1,"id":"j-old-2","fingerprint":%q,"flow":"platform","state":"done",`+
			`"submittedAt":4,"startedAt":5,"finishedAt":6,"request":{"flow":"platform","benchmark":"Bm2"},`+
			`"response":{"flow":"platform","graph":"Bm2","elapsedMs":1}}`+"\n", later.Fingerprint())
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	f := &fakeEval{}
	m := openTest(t, f, Config{JournalPath: path})
	if s := m.Stats(); s.Counters.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2", s.Counters.Replayed)
	}
	old, err := m.Get("j-old-1")
	if err != nil {
		t.Fatal(err)
	}
	if old.State != StateDone || old.Flow != "dtm" {
		t.Fatalf("dtm record replayed as %s/%s, want done/dtm", old.State, old.Flow)
	}
	if r := old.Response; r == nil || r.Metrics == nil || r.Metrics.Makespan != 683.4 {
		t.Errorf("dtm record lost its schedule metrics: %+v", r)
	}
	b, err := m.Submit(later)
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateDone || !b.FromJournal || f.runs.Load() != 0 {
		t.Errorf("record after the dtm one not served from the journal: %+v (%d runs)", b, f.runs.Load())
	}
}

func TestRateLimiter(t *testing.T) {
	l := NewRateLimiter(1, 2)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	if !l.Allow("a") || !l.Allow("a") {
		t.Fatal("burst of 2 rejected")
	}
	if l.Allow("a") {
		t.Fatal("third immediate submission admitted past burst")
	}
	if !l.Allow("b") {
		t.Fatal("distinct client throttled by a's bucket")
	}
	now = now.Add(1500 * time.Millisecond)
	if !l.Allow("a") {
		t.Fatal("token not replenished after 1.5s at 1/s")
	}
	if l.Allow("a") {
		t.Fatal("replenishment over-credited")
	}
	var nilLimiter *RateLimiter
	if !nilLimiter.Allow("x") || !NewRateLimiter(0, 0).Allow("x") {
		t.Fatal("disabled limiter rejected a submission")
	}
}
