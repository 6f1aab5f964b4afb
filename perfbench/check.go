package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"thermalsched"
)

// quality is the paper's view of one response: steady-state (platform,
// co-synthesis) or replica-mean (online) peak and average temperature,
// and the share of deadlines met; plus the online run's work counts
// (closed-loop steps, admission denials).
type quality struct {
	peakC, avgC, deadlineMet float64
	steps, denials           float64
}

// checker validates responses and pins each distinct request's bytes.
// The first good response to a distinct request is parsed and checked in
// full; every later response to it must be byte-identical once the
// wall-clock elapsedMs stamp is zeroed. One checker spans every engine
// of a run, so warm-up, timed and traced passes — and the fresh engines
// of repeated set-ups — must all agree.
type checker struct {
	digests  [][sha256.Size]byte
	seen     []bool
	quality  []quality
	mismatch int // responses that differed from an earlier one
}

func newChecker(distinct int) *checker {
	return &checker{
		digests: make([][sha256.Size]byte, distinct),
		seen:    make([]bool, distinct),
		quality: make([]quality, distinct),
	}
}

var elapsedKey = []byte(`"elapsedMs":`)

// digestOf hashes a response body with its elapsedMs value removed.
func digestOf(body []byte) [sha256.Size]byte {
	h := sha256.New()
	i := bytes.Index(body, elapsedKey)
	if i < 0 {
		h.Write(body)
	} else {
		j := i + len(elapsedKey)
		for j < len(body) && body[j] != ',' && body[j] != '}' {
			j++
		}
		h.Write(body[:i+len(elapsedKey)])
		h.Write([]byte("0"))
		h.Write(body[j:])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// check reports whether the response to distinct request d succeeded.
func (c *checker) check(d, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	dg := digestOf(body)
	if c.seen[d] {
		if dg != c.digests[d] {
			c.mismatch++
			return false
		}
		return true
	}
	q, err := inspect(body)
	if err != nil {
		return false
	}
	c.seen[d], c.digests[d], c.quality[d] = true, dg, q
	return true
}

// inspect parses a response and rejects errors, non-finite temperatures
// and an online price of onlineness below 1.
func inspect(body []byte) (quality, error) {
	var r thermalsched.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return quality{}, err
	}
	if r.Error != "" {
		return quality{}, fmt.Errorf("response error: %s", r.Error)
	}
	var q quality
	switch {
	case r.Metrics != nil:
		q = quality{peakC: r.Metrics.MaxTemp, avgC: r.Metrics.AvgTemp}
		if r.Metrics.Feasible {
			q.deadlineMet = 1
		}
		for _, pe := range r.PerPE {
			if !finite(pe.TempC) {
				return q, fmt.Errorf("non-finite temperature on %s", pe.Name)
			}
		}
	case r.Stream != nil:
		s := r.Stream
		q = quality{peakC: s.PeakTempC.Mean, avgC: s.AvgTempC.Mean, deadlineMet: 1 - s.MissRate.Mean,
			steps: s.MeanSteps, denials: s.MeanAdmissionDenials}
		if !(s.Price.Min >= 1) {
			return q, fmt.Errorf("price of onlineness %g < 1", s.Price.Min)
		}
	default:
		return q, fmt.Errorf("response carries neither metrics nor a stream report")
	}
	if !finite(q.peakC) || !finite(q.avgC) {
		return q, fmt.Errorf("non-finite temperature (peak %g, avg %g)", q.peakC, q.avgC)
	}
	return q, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// complete reports whether every distinct request has a checked response.
func (c *checker) complete() bool {
	for _, ok := range c.seen {
		if !ok {
			return false
		}
	}
	return true
}

// digest folds the per-request digests, in list order, into one hex
// string that identifies the run's outputs.
func (c *checker) digest() string {
	h := sha256.New()
	for _, d := range c.digests {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// means averages the quality numbers over the distinct requests, each
// weighted once, in list order.
func (c *checker) means() quality {
	var m quality
	for _, q := range c.quality {
		m.peakC += q.peakC
		m.avgC += q.avgC
		m.deadlineMet += q.deadlineMet
		m.steps += q.steps
		m.denials += q.denials
	}
	n := float64(len(c.quality))
	return quality{m.peakC / n, m.avgC / n, m.deadlineMet / n, m.steps / n, m.denials / n}
}
