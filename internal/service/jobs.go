package service

// The async job tier's HTTP surface: submit-then-poll (or stream) on
// top of internal/jobs, plus the Prometheus-text /metrics endpoint.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"thermalsched/internal/jobs"
)

// Jobs returns the underlying job manager, for tests and embedding
// callers that want programmatic access beside the HTTP surface.
func (s *Service) Jobs() *jobs.Manager { return s.jobs }

// handleJobSubmit accepts one request for asynchronous evaluation:
// 202 with the job snapshot on success (the snapshot is already
// terminal for coalesced stored-result hits), 429 under backpressure
// or rate limiting.
func (s *Service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	c := s.decodeChecked(w, r)
	if c == nil {
		return
	}
	if !s.rate.Allow(clientKey(r)) {
		s.jobs.Metrics().RejectedRate.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("service: client %q over the submission rate limit", clientKey(r)))
		return
	}
	job, err := s.jobs.Submit(c)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrQueueFull) {
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleJobEvents streams the job's lifecycle as Server-Sent Events:
// one `event: state` frame per transition (the current state first),
// ending after the terminal frame. Poll GET /v1/jobs/{id} for the
// full result; events deliberately carry only the envelope so a slow
// consumer cannot buffer megabytes of campaign output.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.jobs.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatus(err), err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("service: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // terminal state delivered
			}
			blob, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: state\ndata: %s\n\n", blob)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func jobStatus(err error) int {
	if errors.Is(err, jobs.ErrUnknownJob) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// handleMetrics exports the job tier, dispatcher and engine-cache
// counters in the Prometheus text exposition format.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.jobs.Stats()
	mHits, mMisses, mSize := s.engine.ModelCacheStats()
	scHits, scMisses, scSize := s.engine.ScenarioCacheStats()
	stHits, stMisses, stSize := s.engine.StreamCacheStats()
	sEvals, sMemo := s.engine.SearchMemoStats()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := &jobs.PromWriter{W: w}

	p.Family("thermschedd_jobs_submitted_total", "counter", "Job submissions accepted by POST /v1/jobs.")
	p.Sample("thermschedd_jobs_submitted_total", float64(st.Counters.Submitted))
	p.Family("thermschedd_engine_evaluations_total", "counter", "Engine evaluations started by the job tier; submitted minus evaluations is the work coalescing saved.")
	p.Sample("thermschedd_engine_evaluations_total", float64(st.Counters.Evaluations))
	p.Family("thermschedd_coalesce_hits_total", "counter", "Submissions coalesced onto an identical evaluation instead of running one.")
	p.LabelledSample("thermschedd_coalesce_hits_total", float64(st.Counters.CoalesceInflight), "kind", "inflight")
	p.LabelledSample("thermschedd_coalesce_hits_total", float64(st.Counters.CoalesceStored), "kind", "stored")
	p.Family("thermschedd_jobs_finished_total", "counter", "Jobs reaching a terminal state, by outcome.")
	p.LabelledSample("thermschedd_jobs_finished_total", float64(st.Counters.Completed), "outcome", "done")
	p.LabelledSample("thermschedd_jobs_finished_total", float64(st.Counters.Failed), "outcome", "failed")
	p.LabelledSample("thermschedd_jobs_finished_total", float64(st.Counters.Cancelled), "outcome", "cancelled")
	p.Family("thermschedd_jobs_rejected_total", "counter", "Job submissions rejected, by reason.")
	p.LabelledSample("thermschedd_jobs_rejected_total", float64(st.Counters.RejectedQueue), "reason", "queue_full")
	p.LabelledSample("thermschedd_jobs_rejected_total", float64(st.Counters.RejectedRate), "reason", "rate_limited")
	p.Family("thermschedd_journal_replayed_total", "counter", "Journal records restored at startup.")
	p.Sample("thermschedd_journal_replayed_total", float64(st.Counters.Replayed))
	p.Family("thermschedd_journal_errors_total", "counter", "Journal append failures.")
	p.Sample("thermschedd_journal_errors_total", float64(st.Counters.JournalErrors))

	p.Family("thermschedd_queue_depth", "gauge", "Evaluations queued but not yet running.")
	p.Sample("thermschedd_queue_depth", float64(st.QueueDepth))
	p.Family("thermschedd_queue_capacity", "gauge", "Queue-depth cap; submissions beyond it get HTTP 429.")
	p.Sample("thermschedd_queue_capacity", float64(st.QueueCap))
	p.Family("thermschedd_workers_busy", "gauge", "Job-tier workers currently evaluating (pool saturation numerator).")
	p.Sample("thermschedd_workers_busy", float64(st.Busy))
	p.Family("thermschedd_workers", "gauge", "Job-tier worker pool size.")
	p.Sample("thermschedd_workers", float64(st.Workers))
	p.Family("thermschedd_jobs", "gauge", "Retained jobs by state.")
	for _, state := range jobs.States() {
		p.LabelledSample("thermschedd_jobs", float64(st.ByState[state]), "state", string(state))
	}

	p.Family("thermschedd_model_cache_hits_total", "counter", "Thermal-model factorization cache hits.")
	p.Sample("thermschedd_model_cache_hits_total", float64(mHits))
	p.Family("thermschedd_model_cache_misses_total", "counter", "Thermal-model factorization cache misses.")
	p.Sample("thermschedd_model_cache_misses_total", float64(mMisses))
	p.Family("thermschedd_model_cache_entries", "gauge", "Thermal-model factorization cache size.")
	p.Sample("thermschedd_model_cache_entries", float64(mSize))
	p.Family("thermschedd_scenario_cache_hits_total", "counter", "Generated-scenario cache hits.")
	p.Sample("thermschedd_scenario_cache_hits_total", float64(scHits))
	p.Family("thermschedd_scenario_cache_misses_total", "counter", "Generated-scenario cache misses.")
	p.Sample("thermschedd_scenario_cache_misses_total", float64(scMisses))
	p.Family("thermschedd_scenario_cache_entries", "gauge", "Generated-scenario cache size.")
	p.Sample("thermschedd_scenario_cache_entries", float64(scSize))
	p.Family("thermschedd_stream_cache_hits_total", "counter", "Generated stream-workload cache hits.")
	p.Sample("thermschedd_stream_cache_hits_total", float64(stHits))
	p.Family("thermschedd_stream_cache_misses_total", "counter", "Generated stream-workload cache misses.")
	p.Sample("thermschedd_stream_cache_misses_total", float64(stMisses))
	p.Family("thermschedd_stream_cache_entries", "gauge", "Generated stream-workload cache size.")
	p.Sample("thermschedd_stream_cache_entries", float64(stSize))
	p.Family("thermschedd_search_evals_total", "counter", "Floorplan packings actually evaluated by the parallel search backbone.")
	p.Sample("thermschedd_search_evals_total", float64(sEvals))
	p.Family("thermschedd_search_memo_hits_total", "counter", "Search candidates answered from the expression-fingerprint memo.")
	p.Sample("thermschedd_search_memo_hits_total", float64(sMemo))
}
