package thermalsched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Checked is a request Engine.Check has accepted, the only thing the
// runners take. Only Check makes one; it is immutable and shares no
// mutable memory with the Request it came from. A scenario or stream
// input stays a key, generated by the engine's caches when the flow
// runs.
type Checked struct {
	req   Request     // canonical: the copy the flow reads and Fingerprint digests
	graph *Graph      // built inline graph or shared benchmark graph, else nil
	sched SchedConfig // the offline flows' lowered ASP knobs
}

// Flow reports the checked request's flow; a nil value has none.
func (c *Checked) Flow() FlowKind {
	if c == nil {
		return ""
	}
	return c.req.Flow
}

// Fingerprint returns the coalescing key of the checked request; it
// equals the Fingerprint of the Request it was checked from.
func (c *Checked) Fingerprint() string { return fingerprintOf(c.req) }

// MarshalJSON encodes the canonical request, the form the flow reads.
func (c *Checked) MarshalJSON() ([]byte, error) { return json.Marshal(&c.req) }

// Check checks a request once and returns the value every runner
// takes: Request.Validate's check, plus the input graph's task types
// and the candidate PE types checked against the engine's library. Its
// errors are *FieldErrors.
func (e *Engine) Check(req Request) (*Checked, error) { return req.check(e) }

// check is the check Engine.Check and Request.Validate share: it
// canonicalizes r, validates the copy and builds an inline graph.
// Given an engine it also resolves a benchmark, checks the graph's task
// types and the candidate PE types against the engine's library (a
// scenario's generated palette is checked when the flow runs) and
// lowers the ASP knobs; with a nil engine it returns a nil value.
func (r *Request) check(e *Engine) (*Checked, error) {
	c := &Checked{req: r.canonical()}
	q := &c.req
	if err := q.validate(); err != nil {
		return nil, err
	}
	if q.Graph != nil {
		g, err := q.Graph.Graph()
		if err != nil {
			return nil, err
		}
		c.graph = g
	}
	if e == nil {
		return nil, nil
	}
	if q.Benchmark != "" {
		// validate checked the name against the benchmarks NewEngine parsed.
		c.graph = e.benches[q.Benchmark]
	}
	if c.graph != nil {
		// Library.Validate makes every type below NumTaskTypes runnable.
		for i := range c.graph.NumTasks() {
			if t, n := c.graph.Task(i), e.lib.NumTaskTypes(); t.Type >= n {
				field := fmt.Sprintf("graph.tasks[%d].type", i)
				if q.Benchmark != "" {
					field = "benchmark"
				}
				return nil, fieldErr(field, "task %d has type %d, which no PE type of the library runs (types 0-%d)",
					t.ID, t.Type, n-1)
			}
		}
	}
	if q.Scenario == nil {
		if err := checkCandidates(e.lib, q.CandidateTypes); err != nil {
			return nil, err
		}
	}
	if q.TempWeight != nil { // canonical defaults the ASP knobs of the offline flows
		p, _ := aspPolicy(q.Policy)
		c.sched = SchedConfig{Policy: p, TempWeight: *q.TempWeight, PowerWeight: *q.PowerWeight,
			EnergyWeight: *q.EnergyWeight, ThermalHorizon: *q.ThermalHorizon}
	}
	return c, nil
}

// checkAll checks every request, stopping at the first rejection.
func (e *Engine) checkAll(reqs []Request) ([]*Checked, error) {
	out := make([]*Checked, len(reqs))
	for i := range reqs {
		c, err := e.Check(reqs[i])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// RunChecked executes one request checked on this engine (or one with
// the same library). Cancellation is threaded into every flow's hot
// loop — the ASP's greedy step, the GA floorplanner's packing
// evaluations and co-synthesis's candidate evaluations — so a
// cancelled context aborts promptly with an error wrapping ctx.Err().
func (e *Engine) RunChecked(ctx context.Context, c *Checked) (*Response, error) {
	//thermalvet:allow walltime(elapsedMs is an observability stamp, documented as excluded from the byte-identity contract)
	start := time.Now()
	// Dispatch through the flow registry, which Check, FlowKinds() and
	// the CLI help read too, so a flow exists on every surface or none.
	// A nil or zero value names no flow.
	fs, ok := flowFor(c.Flow())
	if !ok {
		return nil, errors.New("thermalsched: RunChecked needs a value from Engine.Check")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := fs.run(e, ctx, c)
	if err != nil {
		return nil, err
	}
	//thermalvet:allow walltime(elapsedMs is an observability stamp, documented as excluded from the byte-identity contract)
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}
