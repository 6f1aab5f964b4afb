package stream_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/scenario"
	"thermalsched/internal/sim"
	"thermalsched/internal/stream"
)

// supervisorFor builds the proactive thermal supervisor the admit and
// zigzag policies require; the reactive policies run unsupervised.
func supervisorFor(t *testing.T, pol string, dt float64) dtm.Supervisor {
	t.Helper()
	switch pol {
	case stream.PolicyAdmit:
		sup, err := dtm.NewAdmitController(dtm.DefaultLadder, 0.7, 0.4, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return sup
	case stream.PolicyZigzag:
		sup, err := dtm.NewZigZagController(dtm.DefaultLadder, 5, dt, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sup
	default:
		return nil
	}
}

// testInput builds a dispatch input from a generated stream workload,
// through the same substrate construction the engine's stream flow
// uses.
func testInput(t *testing.T, spec scenario.StreamSpec) stream.Input {
	t.Helper()
	wl, err := scenario.GenerateStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	arch, _, model, oracle, err := cosynth.BuildPlatformDesc(
		wl.Lib, cosynth.DefaultBusTimePerUnit, hotspot.DefaultConfig(), nil,
		&cosynth.PlatformDesc{TypeNames: wl.PETypeNames, Layout: wl.Layout})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]stream.Job, len(wl.Jobs))
	for i, j := range wl.Jobs {
		jobs[i] = stream.Job{ID: j.ID, Type: j.Type, Arrival: j.Arrival, Deadline: j.Deadline}
	}
	return stream.Input{Jobs: jobs, Lib: wl.Lib, Arch: arch, Model: model, Oracle: oracle}
}

// durationOn recomputes job j's realized duration on its assigned PE
// from the record itself (finish − start); used to cross-check
// capability below.
func capableOn(in stream.Input, job stream.Job, pe int) bool {
	_, ok := in.Lib.Lookup(in.Arch.PEs[pe].Type, job.Type)
	return ok
}

// Every policy must produce a valid online schedule: each job starts at
// or after its arrival, runs on a capable PE, and no two jobs overlap
// on one PE. The past-knowledge contract is structural — the dispatcher
// only ever offers released jobs to the policy — so validity plus
// determinism is what the records can witness.
func TestRunScheduleValidity(t *testing.T) {
	spec := scenario.StreamSpec{Seed: 9, Arrivals: scenario.ArrivalParams{Rate: 0.07}}
	in := testInput(t, spec)
	for _, pol := range stream.Policies() {
		sin := in
		sin.Supervisor = supervisorFor(t, pol, 1)
		res, err := stream.Run(context.Background(), sin, stream.Config{
			Policy: pol, DT: 1, TimeScale: 0.1, MinFactor: 0.7, Seed: 5,
		})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Jobs != len(in.Jobs) || len(res.Records) != len(in.Jobs) {
			t.Fatalf("%s: %d records for %d jobs", pol, len(res.Records), len(in.Jobs))
		}
		perPE := map[int][]stream.JobRecord{}
		for i, rec := range res.Records {
			if rec.Job != i {
				t.Fatalf("%s: record %d carries job %d", pol, i, rec.Job)
			}
			job := in.Jobs[i]
			if rec.Start < job.Arrival {
				t.Errorf("%s: job %d started %g before its arrival %g — future knowledge", pol, i, rec.Start, job.Arrival)
			}
			if rec.Finish <= rec.Start {
				t.Errorf("%s: job %d has empty execution [%g, %g]", pol, i, rec.Start, rec.Finish)
			}
			if rec.PE < 0 || rec.PE >= len(in.Arch.PEs) {
				t.Fatalf("%s: job %d on PE %d of %d", pol, i, rec.PE, len(in.Arch.PEs))
			}
			if !capableOn(in, job, rec.PE) {
				t.Errorf("%s: job %d (type %d) placed on incapable PE %d", pol, i, job.Type, rec.PE)
			}
			perPE[rec.PE] = append(perPE[rec.PE], rec)
		}
		for pe, recs := range perPE {
			for a := 0; a < len(recs); a++ {
				for b := a + 1; b < len(recs); b++ {
					x, y := recs[a], recs[b]
					if x.Start < y.Finish && y.Start < x.Finish {
						t.Errorf("%s: jobs %d and %d overlap on PE %d", pol, x.Job, y.Job, pe)
					}
				}
			}
		}
	}
}

// The clairvoyant bound must lower-bound every realized makespan —
// that is what makes Price = Makespan/Bound ≥ 1 meaningful rather
// than clamped.
func TestRunOfflineBoundIsLowerBound(t *testing.T) {
	for _, seed := range []int64{0, 1, 2} {
		in := testInput(t, scenario.StreamSpec{Seed: seed})
		for _, pol := range stream.Policies() {
			sin := in
			sin.Supervisor = supervisorFor(t, pol, 1)
			res, err := stream.Run(context.Background(), sin, stream.Config{
				Policy: pol, DT: 1, TimeScale: 0.1, MinFactor: 0.8, Seed: seed,
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, pol, err)
			}
			if res.OfflineBound <= 0 {
				t.Fatalf("seed %d %s: bound %g not positive", seed, pol, res.OfflineBound)
			}
			if res.Makespan < res.OfflineBound {
				t.Errorf("seed %d %s: makespan %g below the clairvoyant bound %g", seed, pol, res.Makespan, res.OfflineBound)
			}
			if res.Price < 1 {
				t.Errorf("seed %d %s: price %g below 1", seed, pol, res.Price)
			}
		}
	}
}

// One (workload, config) pair always dispatches identically — the
// dispatch seed is honored verbatim, zero included, and moves results.
func TestRunDeterministicAndSeeded(t *testing.T) {
	in := testInput(t, scenario.StreamSpec{Seed: 3})
	cfg := stream.Config{Policy: stream.PolicyGreedy, DT: 1, TimeScale: 0.1, MinFactor: 0.5, Seed: 0}
	a, err := stream.Run(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stream.Run(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.PeakTempC != b.PeakTempC || a.Energy != b.Energy {
		t.Error("identical (input, config) produced different results")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs across identical runs", i)
		}
	}
	cfg.Seed = 1
	c, err := stream.Run(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan {
		t.Error("seeds 0 and 1 realized identical makespans; the seed is not honored verbatim")
	}
}

// Cancelling the context aborts the stepped loop with an error.
func TestRunCancellation(t *testing.T) {
	in := testInput(t, scenario.StreamSpec{Seed: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stream.Run(ctx, in, stream.Config{
		Policy: stream.PolicyFIFO, DT: 1, TimeScale: 0.1, MinFactor: 1,
	}); err == nil {
		t.Fatal("cancelled dispatch returned no error")
	}
}

// Config validation and the malformed-input guards.
func TestRunInputValidation(t *testing.T) {
	in := testInput(t, scenario.StreamSpec{Seed: 1})
	good := stream.Config{Policy: stream.PolicyFIFO, DT: 1, TimeScale: 0.1, MinFactor: 1}
	bad := []stream.Config{
		{Policy: "psychic", DT: 1, TimeScale: 0.1, MinFactor: 1},
		{Policy: stream.PolicyFIFO, DT: 0, TimeScale: 0.1, MinFactor: 1},
		{Policy: stream.PolicyFIFO, DT: 1, TimeScale: 0, MinFactor: 1},
		{Policy: stream.PolicyFIFO, DT: 1, TimeScale: 0.1, MinFactor: 1.2},
		{Policy: stream.PolicyFIFO, DT: 1, TimeScale: 0.1, MinFactor: 1, MaxSteps: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}

	unsorted := in
	unsorted.Jobs = append([]stream.Job(nil), in.Jobs...)
	unsorted.Jobs[0], unsorted.Jobs[1] = unsorted.Jobs[1], unsorted.Jobs[0]
	if _, err := stream.Run(context.Background(), unsorted, good); err == nil {
		t.Error("unsorted trace accepted")
	}

	empty := in
	empty.Jobs = nil
	if _, err := stream.Run(context.Background(), empty, good); err == nil {
		t.Error("empty trace accepted")
	}

	noOracle := in
	noOracle.Oracle = nil
	if _, err := stream.Run(context.Background(), noOracle, stream.Config{
		Policy: stream.PolicyGreedy, DT: 1, TimeScale: 0.1, MinFactor: 1,
	}); err == nil {
		t.Error("greedy without an oracle accepted")
	}
}

// The dispatcher and the batch realizer share one seeded duration-draw
// contract (sim.DrawFactors): factor j comes from the j-th variate of a
// source seeded with the run seed verbatim. Every record's realized
// duration must therefore equal WCET × the factor an independent
// DrawFactors call reproduces — exactly, not approximately.
func TestRunSharesRealizerDrawContract(t *testing.T) {
	in := testInput(t, scenario.StreamSpec{Seed: 4})
	for _, seed := range []int64{0, 1, 11} {
		const minFactor = 0.6
		res, err := stream.Run(context.Background(), in, stream.Config{
			Policy: stream.PolicyFIFO, DT: 1, TimeScale: 0.1, MinFactor: minFactor, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		factors := sim.DrawFactors(rand.New(rand.NewSource(seed)), len(in.Jobs), minFactor)
		for j, rec := range res.Records {
			e, ok := in.Lib.Lookup(in.Arch.PEs[rec.PE].Type, in.Jobs[j].Type)
			if !ok {
				t.Fatalf("seed %d: job %d ran on incapable PE %d", seed, j, rec.PE)
			}
			want := e.WCET * factors[j]
			// Finish is computed as start + duration, so compare in that
			// association — bit-exact, no epsilon.
			if rec.Finish != rec.Start+want {
				t.Errorf("seed %d: job %d realized duration %g, want WCET %g × shared factor %g = %g",
					seed, j, rec.Finish-rec.Start, e.WCET, factors[j], want)
			}
		}
	}
}

// ParsePolicy canonicalizes: empty means greedy, unknown names error.
func TestParsePolicy(t *testing.T) {
	if p, err := stream.ParsePolicy(""); err != nil || p != stream.PolicyGreedy {
		t.Errorf("empty policy parsed to (%q, %v), want greedy", p, err)
	}
	for _, p := range stream.Policies() {
		got, err := stream.ParsePolicy(p)
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = (%q, %v)", p, got, err)
		}
	}
	if _, err := stream.ParsePolicy("clairvoyant"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// countingSupervisor forwards to a real supervisor and records every
// Admit query, so a test can see which asks the dispatcher made.
type countingSupervisor struct {
	dtm.Supervisor
	queries int
	// held[b] is the instant of block b's last holding denial; a
	// repeated query of b at that instant is a wasted re-ask.
	held    map[int]float64
	reasked int
}

func (c *countingSupervisor) Admit(b int, temps []float64, riseC, now float64) dtm.Admission {
	c.queries++
	if at, ok := c.held[b]; ok && at == now {
		c.reasked++
	}
	adm := c.Supervisor.Admit(b, temps, riseC, now)
	if !adm.OK && now+adm.RetryAfter > now {
		c.held[b] = now
	}
	return adm
}

// After a denial that holds past the instant, the dispatcher must not
// query the supervisor about that PE again at the same instant: each
// idle PE is asked at most once per dispatch instant once it is held.
// The re-asks still count as denials, so the result is unchanged.
func TestRunQueriesHeldPEOncePerInstant(t *testing.T) {
	spec := scenario.StreamSpec{Seed: 3,
		Arrivals: scenario.ArrivalParams{Horizon: 600, Sources: 8, Rate: 0.2, BurstMean: 2},
		Platform: scenario.PlatformParams{PEs: 16}}
	in := testInput(t, spec)
	cfg := stream.Config{DT: 1, TimeScale: 0.1, MinFactor: 0.8, Seed: 5}
	for _, pol := range []string{stream.PolicyAdmit, stream.PolicyZigzag} {
		cfg.Policy = pol
		plain := in
		plain.Supervisor = supervisorFor(t, pol, cfg.DT)
		want, err := stream.Run(context.Background(), plain, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		counted := in
		sup := &countingSupervisor{Supervisor: supervisorFor(t, pol, cfg.DT), held: map[int]float64{}}
		counted.Supervisor = sup
		got, err := stream.Run(context.Background(), counted, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapping the supervisor changed the result", pol)
		}
		if sup.reasked != 0 {
			t.Errorf("%s: %d queries re-asked a PE already held at that instant", pol, sup.reasked)
		}
		if got.AdmissionDenials <= sup.queries {
			t.Errorf("%s: %d denials from %d queries; want the held re-asks counted without a query",
				pol, got.AdmissionDenials, sup.queries)
		}
		t.Logf("%s: %d denials, %d supervisor queries", pol, got.AdmissionDenials, sup.queries)
	}
}
