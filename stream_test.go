package thermalsched

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// fpStreamBase is a stream spec with a non-default value in every
// field, so per-field perturbations are visible against it.
func fpStreamBase() StreamSpec {
	return StreamSpec{
		Name: "base",
		Seed: 7,
		Arrivals: StreamArrivalParams{
			Horizon: 400, Sources: 2, MinPeriod: 50, MaxPeriod: 120,
			Rate: 0.03, BurstMean: 2, BurstGap: 3, Laxity: 5, Types: 6,
		},
		Platform: ScenarioPlatformParams{
			PEs: 5, MinSpeed: 0.7, MaxSpeed: 1.4,
			MeanWork: 40, MeanPower: 5, Noise: 0.2, Layout: "row",
		},
		DT: 2, TimeScale: 0.2, MinFactor: 0.9, SimSeed: 3, Replicas: 2,
	}
}

// Every StreamSpec field — including every nested arrival and platform
// parameter — must move the request-level fingerprint, or coalescing
// would serve one spec's cached response for another.
func TestStreamSpecFingerprintSensitivity(t *testing.T) {
	fingerprint := func(s StreamSpec) string {
		r := Request{Flow: FlowStream, Stream: &s}
		return r.Fingerprint()
	}
	fp := fingerprint(fpStreamBase())
	if fp != fingerprint(fpStreamBase()) {
		t.Fatal("equal stream specs produced different fingerprints")
	}

	variants := map[string]func(*StreamSpec){
		"Name":               func(s *StreamSpec) { s.Name = "other" },
		"Seed":               func(s *StreamSpec) { s.Seed = 8 },
		"Arrivals.Horizon":   func(s *StreamSpec) { s.Arrivals.Horizon = 500 },
		"Arrivals.Sources":   func(s *StreamSpec) { s.Arrivals.Sources = 4 },
		"Arrivals.MinPeriod": func(s *StreamSpec) { s.Arrivals.MinPeriod = 55 },
		"Arrivals.MaxPeriod": func(s *StreamSpec) { s.Arrivals.MaxPeriod = 130 },
		"Arrivals.Rate":      func(s *StreamSpec) { s.Arrivals.Rate = 0.04 },
		"Arrivals.BurstMean": func(s *StreamSpec) { s.Arrivals.BurstMean = 3 },
		"Arrivals.BurstGap":  func(s *StreamSpec) { s.Arrivals.BurstGap = 4 },
		"Arrivals.Laxity":    func(s *StreamSpec) { s.Arrivals.Laxity = 6 },
		"Arrivals.Types":     func(s *StreamSpec) { s.Arrivals.Types = 7 },
		"Platform.PEs":       func(s *StreamSpec) { s.Platform.PEs = 6 },
		"Platform.MinSpeed":  func(s *StreamSpec) { s.Platform.MinSpeed = 0.8 },
		"Platform.MaxSpeed":  func(s *StreamSpec) { s.Platform.MaxSpeed = 1.6 },
		"Platform.MeanWork":  func(s *StreamSpec) { s.Platform.MeanWork = 50 },
		"Platform.MeanPower": func(s *StreamSpec) { s.Platform.MeanPower = 6 },
		"Platform.Noise":     func(s *StreamSpec) { s.Platform.Noise = 0.25 },
		"Platform.Layout":    func(s *StreamSpec) { s.Platform.Layout = "grid" },
		"DT":                 func(s *StreamSpec) { s.DT = 3 },
		"TimeScale":          func(s *StreamSpec) { s.TimeScale = 0.3 },
		"MinFactor":          func(s *StreamSpec) { s.MinFactor = 0.8 },
		"SimSeed":            func(s *StreamSpec) { s.SimSeed = 4 },
		"Replicas":           func(s *StreamSpec) { s.Replicas = 3 },
	}
	seen := map[string]string{fp: "base"}
	for name, mut := range variants {
		s := fpStreamBase()
		mut(&s)
		got := fingerprint(s)
		if prev, dup := seen[got]; dup {
			t.Errorf("perturbing %s collides with %s (fingerprint %s)", name, prev, got)
			continue
		}
		seen[got] = name
	}

	// A stream request's fingerprint must cover the spec, and stream
	// presence must be semantic against the spec-less request.
	with := Request{Flow: FlowStream, Stream: ptr(fpStreamBase())}
	without := Request{Flow: FlowStream}
	if with.Fingerprint() == without.Fingerprint() {
		t.Error("stream spec presence did not move the request fingerprint")
	}
}

// The seed contract: workload seeds are used verbatim, zero included.
// Seed 0 is an ordinary seed — distinct from seed 1, stable across
// calls — and the per-replica dispatch seed (SimSeed + replica index)
// is likewise honored from zero up.
func TestStreamSeedVerbatim(t *testing.T) {
	zeroA, err := GenerateStreamWorkload(StreamSpec{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	zeroB, err := GenerateStreamWorkload(StreamSpec{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	one, err := GenerateStreamWorkload(StreamSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if zeroA.Fingerprint != zeroB.Fingerprint || len(zeroA.Jobs) != len(zeroB.Jobs) {
		t.Error("seed 0 is not stable across generations")
	}
	for i := range zeroA.Jobs {
		if zeroA.Jobs[i] != zeroB.Jobs[i] {
			t.Fatalf("seed 0 job %d differs across generations", i)
		}
	}
	if zeroA.Fingerprint == one.Fingerprint {
		t.Error("seed 0 and seed 1 share a workload fingerprint")
	}
	sameTrace := len(zeroA.Jobs) == len(one.Jobs)
	if sameTrace {
		for i := range zeroA.Jobs {
			if zeroA.Jobs[i] != one.Jobs[i] {
				sameTrace = false
				break
			}
		}
	}
	if sameTrace {
		t.Error("seed 0 and seed 1 generated identical arrival traces; zero was rewritten")
	}

	// SimSeed moves realized durations (visible once MinFactor < 1).
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	run := func(simSeed int64) *StreamReport {
		req := Request{Flow: FlowStream, Stream: &StreamSpec{
			Seed: 1, MinFactor: 0.5, SimSeed: simSeed,
		}}
		resp, err := engine.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Stream
	}
	if run(0).Makespan.Mean == run(1).Makespan.Mean {
		t.Error("SimSeed 0 and 1 realized identical makespans; the dispatch seed is not honored verbatim")
	}
}

// The stream flow must be byte-identical across parallelism levels:
// replica fan-out order is a scheduling detail, never a result detail.
func TestStreamFlowParallelismByteIdentical(t *testing.T) {
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallelism int) string {
		req := Request{Flow: FlowStream, Stream: &StreamSpec{
			Seed: 3, MinFactor: 0.7, Replicas: 4,
		}, Parallelism: parallelism}
		resp, err := engine.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		resp.ElapsedMS = 0
		blob, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	serial := run(1)
	if parallel := run(4); parallel != serial {
		t.Errorf("stream response differs between parallelism 1 and 4:\n  p1 %.200s\n  p4 %.200s", serial, parallel)
	}
	hits, _, _ := engine.StreamCacheStats()
	if hits == 0 {
		t.Error("second stream run did not hit the workload cache")
	}
}

// Price of onlineness is Makespan / clairvoyant offline bound — ≥ 1 by
// construction for every policy, every replica.
func TestStreamPriceAtLeastOne(t *testing.T) {
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range StreamPolicies() {
		req := Request{Flow: FlowStream, Stream: &StreamSpec{
			Seed: 2, MinFactor: 0.6, Replicas: 3,
		}, Policy: pol}
		resp, err := engine.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		s := resp.Stream
		if s.Price.Min < 1 {
			t.Errorf("%s: price min %g below 1; the clairvoyant bound is not a lower bound", pol, s.Price.Min)
		}
		if s.OfflineBound.Min <= 0 {
			t.Errorf("%s: offline bound min %g not positive", pol, s.OfflineBound.Min)
		}
		if s.Policy != pol {
			t.Errorf("report policy %q, want %q", s.Policy, pol)
		}
	}
}

// The thermal-greedy policy must beat both baselines (FIFO and random)
// on miss rate or peak temperature on at least 3 of these 4 scenario
// families — the paper's claim, restated for the online flow.
func TestStreamGreedyBeatsBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-family policy duel skipped in -short mode")
	}
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name string
		spec StreamSpec
	}{
		{"default", StreamSpec{Seed: 1}},
		{"bursty", StreamSpec{Seed: 2, Arrivals: StreamArrivalParams{Rate: 0.08, BurstMean: 3}}},
		{"tight", StreamSpec{Seed: 3, Arrivals: StreamArrivalParams{Laxity: 2}}},
		{"hot", StreamSpec{Seed: 4, Arrivals: StreamArrivalParams{Sources: 4, Rate: 0.12},
			Platform: ScenarioPlatformParams{PEs: 6}}},
	}
	run := func(spec StreamSpec, pol string) *StreamReport {
		req := Request{Flow: FlowStream, Stream: &spec, Policy: pol}
		resp, err := engine.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Stream
	}
	wins := 0
	for _, fam := range families {
		greedy := run(fam.spec, StreamPolicyGreedy)
		fifo := run(fam.spec, StreamPolicyFIFO)
		random := run(fam.spec, StreamPolicyRandom)
		missWin := greedy.MissRate.Mean < fifo.MissRate.Mean && greedy.MissRate.Mean < random.MissRate.Mean
		peakWin := greedy.PeakTempC.Mean < fifo.PeakTempC.Mean && greedy.PeakTempC.Mean < random.PeakTempC.Mean
		if missWin || peakWin {
			wins++
		} else {
			t.Logf("%s: greedy did not win (miss %.3f/%.3f/%.3f peak %.2f/%.2f/%.2f)", fam.name,
				greedy.MissRate.Mean, fifo.MissRate.Mean, random.MissRate.Mean,
				greedy.PeakTempC.Mean, fifo.PeakTempC.Mean, random.PeakTempC.Mean)
		}
	}
	if wins < 3 {
		t.Errorf("greedy beat both baselines on only %d/%d families, want at least 3", wins, len(families))
	}
}

// Stream requests flow through the consolidated Validate with typed
// field errors; each invalid shape must name the offending field.
func TestStreamRequestValidation(t *testing.T) {
	cases := []struct {
		name  string
		req   Request
		field string
	}{
		{"missing spec", Request{Flow: FlowStream}, "stream"},
		{"extra input", Request{Flow: FlowStream, Benchmark: "Bm1",
			Stream: &StreamSpec{Seed: 1}}, "input"},
		{"offline policy", Request{Flow: FlowStream, Policy: "thermal",
			Stream: &StreamSpec{Seed: 1}}, "policy"},
		{"negative dt", Request{Flow: FlowStream,
			Stream: &StreamSpec{Seed: 1, DT: -1}}, "stream.dt"},
		{"minFactor", Request{Flow: FlowStream,
			Stream: &StreamSpec{Seed: 1, MinFactor: 1.5}}, "stream.minFactor"},
		{"replicas", Request{Flow: FlowStream,
			Stream: &StreamSpec{Seed: 1, Replicas: MaxSimulateReplicas + 1}}, "stream.replicas"},
		{"bad arrivals", Request{Flow: FlowStream,
			Stream: &StreamSpec{Arrivals: StreamArrivalParams{Rate: -1}}}, "stream"},
		{"stream on offline flow", Request{Flow: FlowPlatform, Benchmark: "Bm1",
			Policy: "thermal", Stream: &StreamSpec{Seed: 1}}, "stream"},
		// NaN fails every comparison, so each knob's check is written
		// to reject it.
		{"NaN minFactor", Request{Flow: FlowStream,
			Stream: &StreamSpec{Seed: 1, MinFactor: math.NaN()}}, "stream.minFactor"},
		{"NaN dt", Request{Flow: FlowStream,
			Stream: &StreamSpec{Seed: 1, DT: math.NaN()}}, "stream.dt"},
		{"NaN timeScale", Request{Flow: FlowStream,
			Stream: &StreamSpec{Seed: 1, TimeScale: math.NaN()}}, "stream.timeScale"},
		{"negative replicas", Request{Flow: FlowStream,
			Stream: &StreamSpec{Seed: 1, Replicas: -1}}, "stream.replicas"},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid request", tc.name)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: field %q, want %q (%v)", tc.name, fe.Field, tc.field, err)
		}
	}

	// A valid stream request must pass, online policy names included.
	ok := Request{Flow: FlowStream, Policy: StreamPolicyCoolest, Stream: &StreamSpec{Seed: 1}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid stream request rejected: %v", err)
	}
}

// Campaign stream mode: online duels over a generated workload family,
// deterministic, with the greedy policy as the duel reference and the
// price-of-onlineness surfaced per cell.
func TestStreamCampaignMode(t *testing.T) {
	if testing.Short() {
		t.Skip("stream campaign skipped in -short mode")
	}
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Flow: FlowCampaign, Campaign: &CampaignSpec{
		Scenarios: 3, Seed: 5, Stream: &StreamSpec{MinFactor: 0.8},
	}}
	run := func() (*Response, string) {
		resp, err := engine.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		resp.ElapsedMS = 0
		blob, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(blob)
	}
	resp, first := run()
	if _, again := run(); again != first {
		t.Error("stream campaign is not deterministic across runs")
	}

	rep := resp.Campaign
	if rep == nil || !rep.Streamed {
		t.Fatal("campaign response is not marked streamed")
	}
	if rep.Reference != StreamPolicyGreedy {
		t.Errorf("reference %q, want %q", rep.Reference, StreamPolicyGreedy)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rep.Rows))
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed cells", rep.Failed)
	}
	for _, row := range rep.Rows {
		if row.Shape != "stream" {
			t.Errorf("row %s shape %q, want stream", row.Scenario, row.Shape)
		}
		for _, cell := range row.Cells {
			if cell.Price < 1 {
				t.Errorf("row %s policy %s price %g below 1", row.Scenario, cell.Policy, cell.Price)
			}
		}
	}
	if len(rep.Duels) == 0 {
		t.Fatal("stream campaign produced no duels")
	}
	for _, d := range rep.Duels {
		if d.Compared != 3 {
			t.Errorf("duel vs %s compared %d rows, want 3 (miss-gate must not apply in stream mode)", d.Opponent, d.Compared)
		}
		if d.MissRateWins+d.MissRateTies > d.Compared {
			t.Errorf("duel vs %s miss tallies exceed compared rows", d.Opponent)
		}
	}
}
