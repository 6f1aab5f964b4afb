package main

import (
	"time"

	"thermalsched"
)

// tracer times the public calls a /v1/run request makes: JSON decode,
// Request.Validate, Engine.Run and the response encoding. The handler is
// not instrumented; the boundaries come from outside it. Decode ends at
// the body's EOF read; Engine.Run ends at WriteHeader and the encoding at
// the single body Write. Validate is timed on the same decoded request
// after the cycle, and the engine span is what remains between decode and
// WriteHeader (the semaphore and Engine.Run's own re-validation
// included). Only the summed durations are kept.
type tracer struct {
	reqs []thermalsched.Request // decoded distinct requests

	decode, validate, run, encode time.Duration
	respBytes                     int64
	complete, incomplete          int
}

func newTracer(reqs []thermalsched.Request) *tracer {
	return &tracer{reqs: reqs}
}

// record adds the spans of one traced send of distinct request d.
func (t *tracer) record(d int, in *input) {
	v0 := time.Now()
	_ = t.reqs[d].Validate() // the handler already accepted this request
	vd := time.Since(v0)

	t.respBytes += int64(in.rec.body.Len())
	decoded, header, written := in.body.eofAt, in.rec.headerAt, in.rec.writeAt
	if decoded.IsZero() || header.IsZero() || written.IsZero() {
		t.incomplete++
		return
	}
	t.complete++
	t.decode += decoded.Sub(in.sentAt)
	t.validate += vd
	t.run += header.Sub(decoded.Add(vd))
	t.encode += written.Sub(header)
}

// engineCounters are the engine's public cache and search counters.
type engineCounters struct {
	modelHits, modelMisses   uint64
	scenHits, scenMisses     uint64
	streamHits, streamMisses uint64
	evals, memoHits          uint64
}

func readEngine(e *thermalsched.Engine) engineCounters {
	var c engineCounters
	c.modelHits, c.modelMisses, _ = e.ModelCacheStats()
	c.scenHits, c.scenMisses, _ = e.ScenarioCacheStats()
	c.streamHits, c.streamMisses, _ = e.StreamCacheStats()
	c.evals, c.memoHits = e.SearchMemoStats()
	return c
}

func (c engineCounters) sub(o engineCounters) engineCounters {
	return engineCounters{
		c.modelHits - o.modelHits, c.modelMisses - o.modelMisses,
		c.scenHits - o.scenHits, c.scenMisses - o.scenMisses,
		c.streamHits - o.streamHits, c.streamMisses - o.streamMisses,
		c.evals - o.evals, c.memoHits - o.memoHits,
	}
}

// ratio is hits ÷ lookups, 0 when nothing was looked up; the lookups
// are reported beside it as the base.
func ratio(hits, lookups uint64) float64 {
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}
