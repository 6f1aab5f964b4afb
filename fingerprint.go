package thermalsched

import (
	"fmt"
	"hash/fnv"
	"io"
)

// Fingerprint returns a stable hex digest of the request's canonical
// form: two requests with equal fingerprints are guaranteed to produce
// byte-identical Responses (modulo the wall-clock elapsedMs field), so
// the async job tier can coalesce identical in-flight or journaled
// requests onto one Engine evaluation. It is built like the Engine's
// modelKey and scenario.Spec.Fingerprint: every field is serialized
// explicitly, field by field — a reflective dump would silently
// destabilize the key on pointer fields. The thermalvet fpfields
// analyzer checks the registrations below against the struct
// definitions, so adding a field without serializing it here fails
// `go vet`; TestRequestFingerprintCoversFields keeps one slim
// runtime pin as belt-and-braces.
//
// Canonicalization rules:
//
//   - Seed normalizes nil to 1: a nil Seed "keeps the historical
//     default (1)" in the flow that consumes it (cosynthesis), so nil
//     and an explicit 1 coalesce. An explicit 0 is seed 0, distinct
//     from both — the seed-zero contract.
//   - Parallelism is excluded: results are documented byte-identical
//     at every parallelism level, so requests differing only there
//     coalesce onto one evaluation.
//   - The fourth segment is always empty. It held a thermal-solver
//     override the request no longer has; writing it empty keeps every
//     earlier fingerprint, and every journaled job key, unchanged.
//   - The third count after the thermal knobs is always 0. It held the
//     graph count of a randomized sweep flow the request no longer
//     has, which every other flow's requests left at 0; the literal
//     keeps their fingerprints, and their journaled job keys, unchanged.
//   - The other pointer-typed knobs (TempWeight, …, Simulate,
//     Campaign) serialize presence plus value, except Simulate which
//     serializes its withDefaults() normalization — the only form the
//     flow ever consumes — so a nil spec, a zero spec and an
//     explicitly-default-valued spec all share one fingerprint.
//
// Distinct fingerprints do NOT imply distinct responses (two different
// seeds can happen to schedule identically); the guarantee is one-way,
// which is the safe direction for a coalescing key.
//
//thermalvet:serializes Request skip(Parallelism)
//thermalvet:serializes GraphSpec
//thermalvet:serializes TaskSpec
//thermalvet:serializes EdgeSpec
//thermalvet:serializes CampaignSpec
func (r *Request) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "req/v4|%s|%s|%s||%t|%g|", r.Flow, r.Benchmark, r.Policy, r.IncludeGantt, r.BusTimePerUnit)
	fpFloatPtr(h, r.TempWeight)
	fpFloatPtr(h, r.PowerWeight)
	fpFloatPtr(h, r.EnergyWeight)
	fpFloatPtr(h, r.ThermalHorizon)
	fmt.Fprintf(h, "%d|%d|0|", r.MaxPEs, r.FloorplanGenerations)
	fmt.Fprintf(h, "ct%d|", len(r.CandidateTypes))
	for _, t := range r.CandidateTypes {
		fmt.Fprintf(h, "%s|", t)
	}
	seed := int64(1) // nil keeps the historical default
	if r.Seed != nil {
		seed = *r.Seed
	}
	fmt.Fprintf(h, "seed=%d|", seed)
	if r.Graph == nil {
		fmt.Fprint(h, "g-|")
	} else {
		g := r.Graph
		fmt.Fprintf(h, "g+%s|%g|t%d|", g.Name, g.Deadline, len(g.Tasks))
		for _, t := range g.Tasks {
			fmt.Fprintf(h, "%d,%s,%d;", t.ID, t.Name, t.Type)
		}
		fmt.Fprintf(h, "e%d|", len(g.Edges))
		for _, e := range g.Edges {
			fmt.Fprintf(h, "%d,%d,%g,%g;", e.From, e.To, e.Data, e.Prob)
		}
	}
	if r.Scenario == nil {
		fmt.Fprint(h, "sc-|")
	} else {
		// Scenario specs already define the canonical fingerprint the
		// Engine's scenario cache keys on; reuse it verbatim.
		fmt.Fprintf(h, "sc+%s|", r.Scenario.Fingerprint())
	}
	if r.Stream == nil {
		fmt.Fprint(h, "st-|")
	} else {
		// Stream specs define their own canonical fingerprint (workload
		// half keyed like the stream cache, dispatch half normalized).
		fmt.Fprintf(h, "st+%s|", r.Stream.fingerprint())
	}
	// The deleted open-loop dtm flow's spec always hashed in its
	// defaulted form; keeping that segment verbatim keeps every
	// journaled result reachable under its old fingerprint.
	fmt.Fprint(h, "dtm:toggle|85|3|0.4|85|0.05|0.002|0.1|10|0.1|4|1|0|")
	s := r.Simulate.withDefaults()
	fpSimulateSpec(h, "sim:", s)
	c := r.Campaign.withDefaults()
	fmt.Fprintf(h, "cmp:%d|%d|%d|%d|p%d|", c.Scenarios, c.Seed, c.MinTasks, c.MaxTasks, len(c.Policies))
	for _, p := range c.Policies {
		fmt.Fprintf(h, "%s|", p)
	}
	fmt.Fprintf(h, "ctl%d|", len(c.Controllers))
	for _, p := range c.Controllers {
		fmt.Fprintf(h, "%s|", p)
	}
	if c.Template == nil {
		fmt.Fprint(h, "tpl-|")
	} else {
		fmt.Fprintf(h, "tpl+%s|", c.Template.Fingerprint())
	}
	// Unlike Request.Simulate, presence is semantic here: nil means
	// "static platform flow", a set spec (even zero-valued) means
	// "closed-loop co-simulation". Only the set case normalizes.
	if c.Simulate == nil {
		fmt.Fprint(h, "csim-|")
	} else {
		fpSimulateSpec(h, "csim+", c.Simulate.withDefaults())
	}
	// Presence is semantic here too: nil means "offline scenario
	// campaign", a set spec means "online stream campaign".
	if c.Stream == nil {
		fmt.Fprint(h, "cst-|")
	} else {
		fmt.Fprintf(h, "cst+%s|", c.Stream.fingerprint())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fpSimulateSpec serializes a withDefaults()-normalized SimulateSpec —
// the only form the flows ever consume — under the given tag, shared by
// the request's own spec and the campaign's embedded one.
//
//thermalvet:serializes SimulateSpec skip(SupervisorSpec)
//thermalvet:serializes SupervisorSpec
func fpSimulateSpec(w io.Writer, tag string, s SimulateSpec) {
	fmt.Fprintf(w, "%s%s|%g|%g|%g|%g|%g|%g|%g|%g|%g|%g|%g|%g|%g|%g|%g|%g|%g|%d|%t|%t|%d|",
		tag, s.Controller, s.TriggerC, s.Hysteresis, s.Throttle, s.SetpointC, s.Kp, s.Ki,
		s.MinScale, s.FairC, s.SeriousC, s.CriticalC, s.SeriousScale, s.CriticalScale,
		s.RetryAfter, s.CoolTime, s.DT, s.TimeScale, s.MinFactor, s.Seed, s.Conditional,
		s.WarmStart, s.Replicas)
}

// fpFloatPtr serializes an optional float knob as presence plus value:
// nil ("use the calibrated default") stays distinct from any explicit
// override, including an explicit zero.
func fpFloatPtr(w io.Writer, v *float64) {
	if v == nil {
		fmt.Fprint(w, "-|")
		return
	}
	fmt.Fprintf(w, "+%g|", *v)
}
