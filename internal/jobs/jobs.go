// Package jobs is the async job tier layered on a thermalsched Engine:
// submit-then-poll semantics for long-running evaluations, so a
// campaign no longer holds an HTTP connection open for its whole
// runtime. A Manager owns
//
//   - a store of jobs and completed results (in memory, with an
//     optional append-only JSONL journal so completed results survive
//     restart),
//   - a bounded dispatcher (queue-depth cap for backpressure, a fixed
//     worker pool draining it), and
//   - request coalescing keyed on Checked.Fingerprint(): identical
//     in-flight requests attach to one Engine evaluation and share its
//     Response, and identical completed (or journal-replayed) requests
//     are served from the stored result without re-evaluation.
//
// internal/service exposes it as POST/GET/DELETE /v1/jobs plus an SSE
// event stream and Prometheus-text /metrics; this package is
// HTTP-free.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"thermalsched"
)

// State is a job's lifecycle position. Transitions are monotonic:
// queued → running → one of {done, failed, cancelled}; coalesced and
// journal-served jobs can be born directly in a later state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// States lists every job state, in lifecycle order.
func States() []State {
	return []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
}

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Job is the client-visible snapshot of one submitted request. The
// embedded Response is shared with coalesced siblings and is treated
// as immutable once set.
type Job struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	// Flow echoes the request's flow for listing without the payload.
	Flow thermalsched.FlowKind `json:"flow"`
	// Coalesced marks a job that attached to another job's in-flight
	// evaluation; FromJournal one served from a stored result (journal
	// replay or an earlier completed evaluation) without running.
	Coalesced   bool `json:"coalesced,omitempty"`
	FromJournal bool `json:"fromJournal,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt are wall-clock millis since the
	// Unix epoch (zero when the phase has not happened).
	SubmittedAt int64 `json:"submittedAt"`
	StartedAt   int64 `json:"startedAt,omitempty"`
	FinishedAt  int64 `json:"finishedAt,omitempty"`
	// Response is set when State is done; Error when failed.
	Response *thermalsched.Response `json:"response,omitempty"`
	Error    string                 `json:"error,omitempty"`
}

// Event is one job lifecycle notification, streamed over SSE.
type Event struct {
	JobID string `json:"id"`
	State State  `json:"state"`
	// Error carries the failure cause on failed events.
	Error string `json:"error,omitempty"`
}

// Evaluator is the slice of thermalsched.Engine the dispatcher
// consumes; tests substitute counting or failing fakes.
type Evaluator interface {
	RunChecked(ctx context.Context, c *thermalsched.Checked) (*thermalsched.Response, error)
}

// Config tunes a Manager. The zero value uses the defaults.
type Config struct {
	// Workers is the number of evaluations running concurrently
	// (default DefaultWorkers). The Engine parallelizes internally, so
	// a small number keeps the process responsive without
	// oversubscription.
	Workers int
	// QueueDepth caps the number of evaluations queued but not yet
	// running (default DefaultQueueDepth); Submit returns ErrQueueFull
	// beyond it — the service maps that to HTTP 429.
	QueueDepth int
	// MaxJobs caps retained terminal jobs (default DefaultMaxJobs);
	// the oldest are evicted first, together with their stored results
	// when no retained job shares the fingerprint.
	MaxJobs int
	// JournalPath enables the append-only on-disk journal: completed
	// evaluations are appended as JSON lines and replayed on Open, so
	// results survive restart. Empty disables persistence.
	JournalPath string
	// now is a test hook for timestamps.
	now func() time.Time
}

// Defaults for Config's zero values.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 256
	DefaultMaxJobs    = 4096
)

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = DefaultMaxJobs
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Validate reports the first invalid configuration field.
func (c Config) Validate() error {
	if c.Workers < 0 || c.QueueDepth < 0 || c.MaxJobs < 0 {
		return fmt.Errorf("jobs: negative limits (workers %d, queue %d, maxJobs %d)",
			c.Workers, c.QueueDepth, c.MaxJobs)
	}
	return nil
}

// Submission errors the service maps to HTTP statuses.
var (
	// ErrQueueFull rejects a submission when the dispatcher's queue is
	// at capacity (backpressure; HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrUnknownJob reports a job ID the store does not hold (HTTP 404).
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrClosed rejects operations on a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
)

// job is the internal mutable record behind a Job snapshot.
type job struct {
	id          string
	fp          string
	flow        thermalsched.FlowKind
	state       State
	coalesced   bool
	fromJournal bool
	submitted   time.Time
	started     time.Time
	finished    time.Time
	resp        *thermalsched.Response
	err         string
	eval        *evaluation
	subs        map[chan Event]struct{}
}

// evaluation is one Engine run shared by every job coalesced onto it.
type evaluation struct {
	fp     string
	req    *thermalsched.Checked
	ctx    context.Context
	cancel context.CancelFunc
	jobs   []*job // attached, in submission order
	live   int    // attached jobs not yet cancelled
}

// Manager is the async job tier. Construct with Open, feed it checked
// requests with Submit, and Close it on shutdown. Safe for concurrent
// use.
type Manager struct {
	eval    Evaluator
	cfg     Config
	metrics *Metrics
	idNonce string

	mu       sync.Mutex
	jobs     map[string]*job
	terminal []string // terminal job IDs in completion order, for eviction
	inflight map[string]*evaluation
	results  map[string]*thermalsched.Response // fingerprint → completed response
	queue    chan *evaluation
	depth    int // evaluations queued but not yet picked up
	busy     int // workers currently evaluating
	seq      uint64
	closed   bool

	journal *journal
	wg      sync.WaitGroup
	base    context.Context
	stop    context.CancelFunc
}

// Open builds a Manager, replays the journal (when configured) into
// the result store, and starts the worker pool.
func Open(eval Evaluator, cfg Config) (*Manager, error) {
	if eval == nil {
		return nil, fmt.Errorf("jobs: nil evaluator")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var nonce [4]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("jobs: reading id entropy: %w", err)
	}
	base, stop := context.WithCancel(context.Background())
	m := &Manager{
		eval:     eval,
		cfg:      cfg,
		metrics:  &Metrics{},
		idNonce:  hex.EncodeToString(nonce[:]),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*evaluation),
		results:  make(map[string]*thermalsched.Response),
		queue:    make(chan *evaluation, cfg.QueueDepth),
		base:     base,
		stop:     stop,
	}
	if cfg.JournalPath != "" {
		jn, records, err := openJournal(cfg.JournalPath)
		if err != nil {
			stop()
			return nil, err
		}
		m.journal = jn
		for _, rec := range records {
			m.replay(rec)
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// replay restores one journal record into the store: the job is
// retained in its terminal state and done results feed the coalescing
// index so identical future requests skip evaluation.
func (m *Manager) replay(rec record) {
	if rec.ID == "" || m.jobs[rec.ID] != nil {
		return
	}
	j := &job{
		id:          rec.ID,
		fp:          rec.Fingerprint,
		flow:        rec.Flow,
		state:       rec.State,
		fromJournal: true,
		submitted:   time.UnixMilli(rec.SubmittedAt),
		started:     time.UnixMilli(rec.StartedAt),
		finished:    time.UnixMilli(rec.FinishedAt),
		resp:        rec.Response,
		err:         rec.Error,
	}
	if !j.state.Terminal() {
		return // a live state in the journal is a corrupt record
	}
	m.jobs[j.id] = j
	m.terminal = append(m.terminal, j.id)
	if j.state == StateDone && j.resp != nil && j.fp != "" {
		m.results[j.fp] = j.resp
	}
	m.metrics.Replayed.Add(1)
	m.evictLocked()
}

// newID mints a process-unique job ID. The nonce keeps IDs from
// colliding with journal-replayed jobs of earlier processes.
func (m *Manager) newID() string {
	m.seq++
	return fmt.Sprintf("j-%s-%d", m.idNonce, m.seq)
}

// Submit accepts one checked request: it computes the coalescing
// fingerprint, attaches to an identical stored result or in-flight
// evaluation when one exists, and otherwise enqueues a fresh
// evaluation. It returns the job's initial snapshot immediately.
func (m *Manager) Submit(req *thermalsched.Checked) (Job, error) {
	fp, flow := req.Fingerprint(), req.Flow()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, ErrClosed
	}

	// A stored result (journal replay or earlier completed evaluation)
	// serves the job without running anything.
	if resp, ok := m.results[fp]; ok {
		j := &job{
			id: m.newID(), fp: fp, flow: flow,
			state: StateDone, fromJournal: true,
			submitted: m.cfg.now(), finished: m.cfg.now(),
			resp: resp,
		}
		m.jobs[j.id] = j
		m.terminal = append(m.terminal, j.id)
		m.metrics.Submitted.Add(1)
		m.metrics.CoalesceStored.Add(1)
		m.evictLocked()
		return j.snapshot(), nil
	}

	// An identical in-flight evaluation: attach and share its Response.
	if ev, ok := m.inflight[fp]; ok {
		j := &job{
			id: m.newID(), fp: fp, flow: flow,
			state: StateQueued, coalesced: true,
			submitted: m.cfg.now(), eval: ev,
		}
		// Jobs attaching after the evaluation started are already
		// running from the client's point of view.
		if len(ev.jobs) > 0 && ev.jobs[0].state == StateRunning {
			j.state = StateRunning
			j.started = ev.jobs[0].started
		}
		ev.jobs = append(ev.jobs, j)
		ev.live++
		m.jobs[j.id] = j
		m.metrics.Submitted.Add(1)
		m.metrics.CoalesceInflight.Add(1)
		return j.snapshot(), nil
	}

	// Fresh evaluation: reject when the queue is at capacity.
	if m.depth >= m.cfg.QueueDepth {
		m.metrics.RejectedQueue.Add(1)
		return Job{}, fmt.Errorf("%w: %d evaluations queued (cap %d)", ErrQueueFull, m.depth, m.cfg.QueueDepth)
	}
	ctx, cancel := context.WithCancel(m.base)
	ev := &evaluation{fp: fp, req: req, ctx: ctx, cancel: cancel}
	j := &job{
		id: m.newID(), fp: fp, flow: flow,
		state: StateQueued, submitted: m.cfg.now(), eval: ev,
	}
	ev.jobs = []*job{j}
	ev.live = 1
	m.jobs[j.id] = j
	m.inflight[fp] = ev
	m.depth++
	m.metrics.Submitted.Add(1)
	m.queue <- ev // cannot block: depth ≤ QueueDepth == cap(queue)
	return j.snapshot(), nil
}

// Get returns the current snapshot of a job.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.snapshot(), nil
}

// Cancel cancels a job. Cancelling is idempotent: a terminal job is
// returned unchanged. The underlying evaluation is only aborted when
// its last live (non-cancelled) attached job cancels — coalesced
// siblings keep it running.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if j.state.Terminal() {
		return j.snapshot(), nil
	}
	ev := j.eval
	m.finishLocked(j, StateCancelled, nil, "")
	m.metrics.Cancelled.Add(1)
	if ev != nil {
		ev.live--
		if ev.live <= 0 {
			// Last waiter gone: abort the evaluation and free the
			// fingerprint so an identical later submission starts fresh.
			ev.cancel()
			if m.inflight[ev.fp] == ev {
				delete(m.inflight, ev.fp)
			}
		}
	}
	return j.snapshot(), nil
}

// Subscribe registers for a job's lifecycle events. The current state
// is delivered as the first event; the channel closes after the
// terminal event (immediately for already-terminal jobs). The returned
// cancel function releases the subscription.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	// Buffer every state a job can traverse plus slack; sends are
	// non-blocking so a stalled reader can never wedge the dispatcher.
	ch := make(chan Event, 8)
	ch <- j.event()
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
	return ch, cancel, nil
}

// Close stops accepting submissions, aborts queued and running
// evaluations, and waits for the workers to exit. The journal is
// closed last so in-flight completions still persist.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.stop() // cancels every evaluation context
	m.wg.Wait()
	if m.journal != nil {
		return m.journal.Close()
	}
	return nil
}

// worker drains the queue, running one evaluation at a time.
func (m *Manager) worker() {
	defer m.wg.Done()
	for ev := range m.queue {
		m.run(ev)
	}
}

// run executes one evaluation and fans its outcome to every attached
// job.
func (m *Manager) run(ev *evaluation) {
	m.mu.Lock()
	m.depth--
	if ev.ctx.Err() != nil || ev.live <= 0 {
		// Every waiter cancelled while queued; nothing to run.
		if m.inflight[ev.fp] == ev {
			delete(m.inflight, ev.fp)
		}
		m.mu.Unlock()
		return
	}
	m.busy++
	now := m.cfg.now()
	for _, j := range ev.jobs {
		if j.state == StateQueued {
			j.state = StateRunning
			j.started = now
			j.notifyLocked()
		}
	}
	m.mu.Unlock()

	m.metrics.Evaluations.Add(1)
	resp, err := m.eval.RunChecked(ev.ctx, ev.req)

	m.mu.Lock()
	m.busy--
	if m.inflight[ev.fp] == ev {
		delete(m.inflight, ev.fp)
	}
	switch {
	case err == nil:
		m.results[ev.fp] = resp
		for _, j := range ev.jobs {
			if !j.state.Terminal() {
				m.finishLocked(j, StateDone, resp, "")
				m.metrics.Completed.Add(1)
			}
		}
		m.journalLocked(ev, resp, "")
	case ev.ctx.Err() != nil:
		// Aborted by cancellation (or shutdown): jobs were already
		// marked cancelled by Cancel; sweep up any shutdown leftovers.
		for _, j := range ev.jobs {
			if !j.state.Terminal() {
				m.finishLocked(j, StateCancelled, nil, "")
				m.metrics.Cancelled.Add(1)
			}
		}
	default:
		for _, j := range ev.jobs {
			if !j.state.Terminal() {
				m.finishLocked(j, StateFailed, nil, err.Error())
				m.metrics.Failed.Add(1)
			}
		}
		m.journalLocked(ev, nil, err.Error())
	}
	m.evictLocked()
	m.mu.Unlock()
}

// journalLocked appends the evaluation's terminal record (once, under
// the primary job) to the on-disk journal.
func (m *Manager) journalLocked(ev *evaluation, resp *thermalsched.Response, errMsg string) {
	if m.journal == nil || len(ev.jobs) == 0 {
		return
	}
	j := ev.jobs[0]
	state := StateDone
	if errMsg != "" {
		state = StateFailed
	}
	rec := record{
		V: 1, ID: j.id, Fingerprint: ev.fp, Flow: j.flow, State: state,
		SubmittedAt: j.submitted.UnixMilli(), StartedAt: j.started.UnixMilli(),
		FinishedAt: j.finished.UnixMilli(),
		Request:    ev.req, Response: resp, Error: errMsg,
	}
	if err := m.journal.append(rec); err != nil {
		m.metrics.JournalErrors.Add(1)
	}
}

// finishLocked moves a job to a terminal state, notifies subscribers
// and closes their channels. Callers hold m.mu.
func (m *Manager) finishLocked(j *job, state State, resp *thermalsched.Response, errMsg string) {
	j.state = state
	j.resp = resp
	j.err = errMsg
	j.finished = m.cfg.now()
	m.terminal = append(m.terminal, j.id)
	j.notifyLocked()
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// evictLocked drops the oldest terminal jobs beyond the retention cap,
// together with stored results no retained job still references.
func (m *Manager) evictLocked() {
	for len(m.terminal) > m.cfg.MaxJobs {
		id := m.terminal[0]
		m.terminal = m.terminal[1:]
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		delete(m.jobs, id)
		if j.state == StateDone {
			// Keep the result while any retained job shares the
			// fingerprint; otherwise the stored response leaks forever.
			shared := false
			for _, other := range m.jobs {
				if other.fp == j.fp && other.state == StateDone {
					shared = true
					break
				}
			}
			if !shared {
				delete(m.results, j.fp)
			}
		}
	}
}

// notifyLocked pushes the job's current state to subscribers without
// blocking; a full (stalled) subscriber misses intermediate events but
// always receives the terminal one via the channel close + final Get.
func (j *job) notifyLocked() {
	ev := j.event()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (j *job) event() Event {
	return Event{JobID: j.id, State: j.state, Error: j.err}
}

// snapshot copies the job into its client-visible form.
func (j *job) snapshot() Job {
	s := Job{
		ID: j.id, Fingerprint: j.fp, State: j.state, Flow: j.flow,
		Coalesced: j.coalesced, FromJournal: j.fromJournal,
		SubmittedAt: j.submitted.UnixMilli(),
		Response:    j.resp, Error: j.err,
	}
	if !j.started.IsZero() {
		s.StartedAt = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		s.FinishedAt = j.finished.UnixMilli()
	}
	return s
}

// Stats is a point-in-time dispatcher snapshot for /metrics.
type Stats struct {
	QueueDepth int
	QueueCap   int
	Workers    int
	Busy       int
	ByState    map[State]int
	Counters   MetricsSnapshot
}

// Stats captures the dispatcher and store state plus the monotonic
// counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	by := make(map[State]int, 5)
	for _, j := range m.jobs {
		by[j.state]++
	}
	return Stats{
		QueueDepth: m.depth,
		QueueCap:   m.cfg.QueueDepth,
		Workers:    m.cfg.Workers,
		Busy:       m.busy,
		ByState:    by,
		Counters:   m.metrics.Snapshot(),
	}
}
