// Package service exposes a thermalsched Engine as an HTTP/JSON API:
// request decoding and validation, flow routing, concurrency limiting,
// and the async job tier. cmd/thermschedd is the thin binary around it.
//
// Endpoints:
//
//	POST   /v1/run             one thermalsched.Request  -> one thermalsched.Response (synchronous)
//	POST   /v1/batch           []thermalsched.Request    -> []thermalsched.Response (synchronous)
//	POST   /v1/jobs            one thermalsched.Request  -> jobs.Job (202; submit-then-poll)
//	GET    /v1/jobs/{id}       jobs.Job (status + result when done)
//	GET    /v1/jobs/{id}/events  SSE job lifecycle stream
//	DELETE /v1/jobs/{id}       cancel; returns the resulting jobs.Job
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness + engine cache/memo stats
//
// The wire schema is exactly the package's Request/Response types, so
// the CLI's -json output, the service's responses, and library-level
// JSON round trips all share one format; an async job's response is
// byte-identical to the synchronous /v1/run response for the same
// request. Every Engine flow is served, including the
// synthetic-scenario generate and campaign flows; their size limits
// (scenario.MaxTasks/MaxPEs, MaxCampaignScenarios) and an inline
// graph's faults are enforced by Engine.Check, once per request or
// batch entry, before any work is admitted.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"

	"thermalsched"
	"thermalsched/internal/jobs"
)

// engineAPI is the slice of thermalsched.Engine the service consumes.
// It exists so tests can substitute a failing engine; production code
// always passes a real *thermalsched.Engine through New.
type engineAPI interface {
	Check(req thermalsched.Request) (*thermalsched.Checked, error)
	RunChecked(ctx context.Context, c *thermalsched.Checked) (*thermalsched.Response, error)
	RunBatch(ctx context.Context, reqs []*thermalsched.Checked) ([]*thermalsched.Response, error)
	ModelCacheStats() (hits, misses uint64, size int)
	ScenarioCacheStats() (hits, misses uint64, size int)
	StreamCacheStats() (hits, misses uint64, size int)
	SearchMemoStats() (evals, memoHits uint64)
}

// Config tunes the service.
type Config struct {
	// MaxInFlight bounds the number of synchronous requests being
	// executed at once across /v1/run and /v1/batch (a batch counts
	// once). Zero means DefaultMaxInFlight. The job tier has its own
	// worker pool (Jobs.Workers) and does not draw from this limit.
	MaxInFlight int
	// MaxBatch caps the entries accepted by /v1/batch. Zero means
	// DefaultMaxBatch.
	MaxBatch int
	// MaxBodyBytes caps the request body size. Zero means
	// DefaultMaxBodyBytes. Oversized bodies are rejected with HTTP 413.
	MaxBodyBytes int64
	// Jobs tunes the async job tier (queue depth, worker pool,
	// journal path, retention); see jobs.Config.
	Jobs jobs.Config
	// RatePerSec and RateBurst bound per-client job submissions: each
	// client (X-Client-ID header, falling back to the remote address)
	// may submit RatePerSec jobs per second with bursts of RateBurst.
	// Zero RatePerSec disables rate limiting.
	RatePerSec float64
	RateBurst  float64
}

// Defaults for Config's zero values.
const (
	DefaultMaxInFlight  = 4
	DefaultMaxBatch     = 64
	DefaultMaxBodyBytes = 8 << 20
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return c
}

// Validate reports the first invalid configuration field.
func (c Config) Validate() error {
	if c.MaxInFlight < 0 || c.MaxBatch < 0 || c.MaxBodyBytes < 0 {
		return fmt.Errorf("service: negative limits (inflight %d, batch %d, body %d)",
			c.MaxInFlight, c.MaxBatch, c.MaxBodyBytes)
	}
	if c.RatePerSec < 0 || c.RateBurst < 0 {
		return fmt.Errorf("service: negative rate limit (%g/s, burst %g)", c.RatePerSec, c.RateBurst)
	}
	return c.Jobs.Validate()
}

// Service routes scheduling requests to an Engine under a concurrency
// limit and owns the async job tier. Construct with New, Close on
// shutdown; it is safe for concurrent use.
type Service struct {
	engine engineAPI
	cfg    Config
	slots  chan struct{} // counting semaphore, one slot per running sync request
	jobs   *jobs.Manager
	rate   *jobs.RateLimiter
}

// New wraps an engine with validation, routing, concurrency limits and
// the job tier (replaying the journal when one is configured).
func New(engine *thermalsched.Engine, cfg Config) (*Service, error) {
	if engine == nil {
		return nil, fmt.Errorf("service: nil engine")
	}
	return newWith(engine, cfg)
}

func newWith(engine engineAPI, cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	mgr, err := jobs.Open(engine, cfg.Jobs)
	if err != nil {
		return nil, err
	}
	var rate *jobs.RateLimiter
	if cfg.RatePerSec > 0 {
		rate = jobs.NewRateLimiter(cfg.RatePerSec, cfg.RateBurst)
	}
	return &Service{
		engine: engine,
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.MaxInFlight),
		jobs:   mgr,
		rate:   rate,
	}, nil
}

// Close shuts the job tier down: queued and running jobs are
// cancelled and the journal is flushed and closed.
func (s *Service) Close() error { return s.jobs.Close() }

// Handler returns the HTTP handler serving the service's endpoints.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// errorBody is the JSON error envelope for non-200 responses. Field is
// set on validation failures: the request field the error names, so
// clients can map 400s back to their inputs without parsing the
// message. Error always carries thermalsched's canonical message — the
// same text Engine.Check returns and the CLI prints.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // client gone is the only failure; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	var fe *thermalsched.FieldError
	if errors.As(err, &fe) {
		body.Field = fe.Field
	}
	writeJSON(w, status, body)
}

// acquire takes an execution slot. When the service is saturated the
// request queues here until a slot frees or the client disconnects —
// admission is blocking by design, so bursty callers see latency
// rather than rejections. (The async job tier is the non-blocking
// alternative: POST /v1/jobs returns immediately and rejects with 429
// only when its queue cap is hit.)
func (s *Service) acquire(r *http.Request) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-r.Context().Done():
		return r.Context().Err()
	}
}

func (s *Service) release() { <-s.slots }

// decodeChecked decodes and checks one request, answering the client
// itself and returning nil when either step fails.
func (s *Service) decodeChecked(w http.ResponseWriter, r *http.Request) *thermalsched.Checked {
	var req thermalsched.Request
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), err)
		return nil
	}
	c, err := s.engine.Check(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
	}
	return c
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	c := s.decodeChecked(w, r)
	if c == nil {
		return
	}
	if err := s.acquire(r); err != nil {
		return // client cancelled while queued; nothing to write
	}
	defer s.release()
	resp, err := s.engine.RunChecked(r.Context(), c)
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			return // client cancelled mid-run
		}
		// A flow that finds a bad field only once its input resolves
		// (a candidate PE type missing from a generated scenario's
		// palette) reports it as a FieldError.
		status := http.StatusInternalServerError
		var fe *thermalsched.FieldError
		if errors.As(err, &fe) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var reqs []thermalsched.Request
	if err := s.decode(w, r, &reqs); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: empty batch"))
		return
	}
	if len(reqs) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: batch of %d exceeds limit %d", len(reqs), s.cfg.MaxBatch))
		return
	}
	// Check the whole batch up front so a malformed entry rejects the
	// request before any work runs.
	checked := make([]*thermalsched.Checked, len(reqs))
	for i := range reqs {
		c, err := s.engine.Check(reqs[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: batch entry %d: %w", i, err))
			return
		}
		checked[i] = c
	}
	if err := s.acquire(r); err != nil {
		return
	}
	defer s.release()
	// The engine's own worker pool fans the batch out; the service-level
	// semaphore treats the batch as one unit of admission so a single
	// large batch cannot starve /v1/run callers of all slots.
	resps, err := s.engine.RunBatch(r.Context(), checked)
	if err != nil {
		if r.Context().Err() != nil {
			return // client cancelled; partial results are moot
		}
		// Engine-level failure with a live client: report it. Falling
		// through here used to emit HTTP 200 with a null body.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resps)
}

type healthBody struct {
	Status string `json:"status"`
	// Model-cache stats (thermal-model factorizations).
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	CacheSize   int    `json:"cacheSize"`
	// Generated-scenario cache stats.
	ScenarioCacheHits   uint64 `json:"scenarioCacheHits"`
	ScenarioCacheMisses uint64 `json:"scenarioCacheMisses"`
	ScenarioCacheSize   int    `json:"scenarioCacheSize"`
	// Generated stream-workload cache stats (every stream request).
	StreamCacheHits   uint64 `json:"streamCacheHits"`
	StreamCacheMisses uint64 `json:"streamCacheMisses"`
	StreamCacheSize   int    `json:"streamCacheSize"`
	// Parallel-search memo accounting (co-synthesis floorplanner).
	SearchEvals    uint64 `json:"searchEvals"`
	SearchMemoHits uint64 `json:"searchMemoHits"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.engine.ModelCacheStats()
	scHits, scMisses, scSize := s.engine.ScenarioCacheStats()
	stHits, stMisses, stSize := s.engine.StreamCacheStats()
	evals, memoHits := s.engine.SearchMemoStats()
	writeJSON(w, http.StatusOK, healthBody{
		Status:    "ok",
		CacheHits: hits, CacheMisses: misses, CacheSize: size,
		ScenarioCacheHits: scHits, ScenarioCacheMisses: scMisses, ScenarioCacheSize: scSize,
		StreamCacheHits: stHits, StreamCacheMisses: stMisses, StreamCacheSize: stSize,
		SearchEvals: evals, SearchMemoHits: memoHits,
	})
}

// decode reads a size-capped JSON body into v, rejecting trailing data.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: decoding request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("service: trailing data after JSON body")
	}
	return nil
}

// decodeStatus maps a decode failure to its HTTP status: an oversized
// body is 413 Content Too Large (the cap is a policy limit, not a
// malformed request), everything else 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// clientKey identifies the submitting client for per-client rate
// limits: an explicit X-Client-ID header wins, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
