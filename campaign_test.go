package thermalsched

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

func TestGenerateFlow(t *testing.T) {
	e := testEngine(t)
	spec := ScenarioSpec{
		Seed: 5,
		Graph: ScenarioGraphParams{
			Tasks: 30, BranchDensity: 0.5,
		},
		Platform: ScenarioPlatformParams{PEs: 5, MinSpeed: 0.8, MaxSpeed: 1.8},
	}
	resp, err := e.Run(context.Background(), NewRequest(FlowGenerate, WithScenario(spec)))
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Scenario
	if r == nil {
		t.Fatal("generate response missing scenario report")
	}
	if r.Fingerprint == "" || resp.Fingerprint != r.Fingerprint {
		t.Errorf("fingerprint not stamped: response %q, report %q", resp.Fingerprint, r.Fingerprint)
	}
	if r.Tasks != 30 || r.PEs != 5 {
		t.Errorf("report says %d tasks on %d PEs, want 30 on 5", r.Tasks, r.PEs)
	}

	// The serialized forms must parse back with the repository's own
	// readers, to exactly the reported shapes.
	g, err := taskgraph.ReadGraph(strings.NewReader(r.TG))
	if err != nil {
		t.Fatalf("reparsing TG: %v", err)
	}
	if g.NumTasks() != r.Tasks || g.NumEdges() != r.Edges {
		t.Errorf("reparsed graph %d/%d, report %d/%d", g.NumTasks(), g.NumEdges(), r.Tasks, r.Edges)
	}
	lib, err := techlib.ReadLibrary(strings.NewReader(r.Lib))
	if err != nil {
		t.Fatalf("reparsing Lib: %v", err)
	}
	if lib.NumPETypes() != r.PEs {
		t.Errorf("reparsed library has %d PE types, want %d", lib.NumPETypes(), r.PEs)
	}

	// The inline GraphSpec must be feedable straight back into a
	// platform request... except generated graphs need their generated
	// platform; instead run the same scenario through the platform flow.
	plat, err := e.Run(context.Background(), NewRequest(FlowPlatform, WithScenario(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if plat.Fingerprint != r.Fingerprint {
		t.Errorf("platform run fingerprint %q != generate fingerprint %q", plat.Fingerprint, r.Fingerprint)
	}
	if plat.Metrics == nil || plat.Graph != r.Name {
		t.Errorf("platform run on scenario missing metrics or wrong graph %q", plat.Graph)
	}
	if len(plat.Architecture) != 5 {
		t.Errorf("platform run used %d PEs, want the scenario's 5", len(plat.Architecture))
	}
}

func TestScenarioCacheReuse(t *testing.T) {
	e := testEngine(t)
	spec := ScenarioSpec{Seed: 9, Graph: ScenarioGraphParams{Tasks: 25}}
	ctx := context.Background()
	for _, flow := range []FlowKind{FlowGenerate, FlowPlatform, FlowPlatform} {
		if _, err := e.Run(ctx, NewRequest(flow, WithScenario(spec))); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, size := e.ScenarioCacheStats()
	if misses != 1 || hits < 2 || size != 1 {
		t.Errorf("scenario cache hits=%d misses=%d size=%d, want >=2/1/1", hits, misses, size)
	}
}

func TestScenarioRunsThroughEveryGraphFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("cosynthesis on generated scenarios skipped in -short mode")
	}
	e := testEngine(t)
	spec := ScenarioSpec{
		Seed:     21,
		Graph:    ScenarioGraphParams{Tasks: 20},
		Platform: ScenarioPlatformParams{PEs: 4, MinSpeed: 0.7, MaxSpeed: 1.7, Layout: ScenarioLayoutRow},
	}
	ctx := context.Background()
	for _, tc := range []struct {
		flow FlowKind
		opts []RequestOption
	}{
		{FlowPlatform, nil},
		{FlowCoSynthesis, nil},
		{FlowSimulate, []RequestOption{WithSimulate(SimulateSpec{Replicas: 2, Seed: 1})}},
	} {
		opts := append([]RequestOption{WithScenario(spec)}, tc.opts...)
		resp, err := e.Run(ctx, NewRequest(tc.flow, opts...))
		if err != nil {
			t.Errorf("%s on scenario: %v", tc.flow, err)
			continue
		}
		if resp.Fingerprint == "" {
			t.Errorf("%s on scenario: fingerprint not stamped", tc.flow)
		}
		if resp.Metrics == nil {
			t.Errorf("%s on scenario: missing metrics", tc.flow)
		}
	}
}

func TestCampaignFlowDeterministicAndAggregated(t *testing.T) {
	e := testEngine(t)
	req := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
		Scenarios: 6,
		Seed:      4,
		MinTasks:  20,
		MaxTasks:  40,
	}))
	ctx := context.Background()
	run := func() string {
		resp, err := e.Run(ctx, req)
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
	first := run()
	if second := run(); first != second {
		t.Errorf("campaign not deterministic:\n%s\n---\n%s", first, second)
	}

	var resp Response
	if err := json.Unmarshal([]byte(first), &resp); err != nil {
		t.Fatal(err)
	}
	r := resp.Campaign
	if r == nil {
		t.Fatal("campaign response missing report")
	}
	if r.Scenarios != 6 || len(r.Rows) != 6 {
		t.Fatalf("report covers %d scenarios in %d rows, want 6", r.Scenarios, len(r.Rows))
	}
	if r.Reference != "thermal" {
		t.Errorf("reference %q, want thermal", r.Reference)
	}
	if len(r.Duels) != 1 || r.Duels[0].Opponent != "heuristic3" {
		t.Fatalf("want one duel against heuristic3, got %+v", r.Duels)
	}
	if len(r.PerPolicy) != 2 {
		t.Fatalf("want 2 per-policy stats, got %d", len(r.PerPolicy))
	}
	for _, st := range r.PerPolicy {
		if st.Runs != 6 {
			t.Errorf("policy %s ran %d scenarios, want 6", st.Policy, st.Runs)
		}
		if !(st.MaxTempC.Mean > 0) || st.MaxTempC.Min > st.MaxTempC.Max {
			t.Errorf("policy %s has degenerate temp stats %+v", st.Policy, st.MaxTempC)
		}
	}
	for _, row := range r.Rows {
		if row.Tasks < 20 || row.Tasks > 40 {
			t.Errorf("row %s has %d tasks outside [20, 40]", row.Scenario, row.Tasks)
		}
		if row.Fingerprint == "" || row.Edges == 0 || row.Deadline == 0 {
			t.Errorf("row %s incomplete: %+v", row.Scenario, row)
		}
		if len(row.Cells) != 2 {
			t.Errorf("row %s has %d cells, want 2", row.Scenario, len(row.Cells))
		}
		for _, c := range row.Cells {
			if c.Error != "" {
				t.Errorf("row %s cell %s failed: %s", row.Scenario, c.Policy, c.Error)
			}
		}
	}
	if d := r.Duels[0]; d.Compared > 0 {
		if d.MaxTempWins+d.MaxTempTies > d.Compared {
			t.Errorf("duel wins %d + ties %d exceed compared %d", d.MaxTempWins, d.MaxTempTies, d.Compared)
		}
	}
	if s := r.String(); !strings.Contains(s, "Campaign: 6 scenarios") {
		t.Errorf("report rendering unexpected:\n%s", s)
	}
}

// The acceptance-scale campaign: ≥50 scenarios spanning the full task
// range, deterministic under a fixed seed, with win rates and
// percentiles present.
func TestCampaignAcceptanceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("50-scenario campaign skipped in -short mode")
	}
	e := testEngine(t)
	req := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
		Scenarios: 50,
		Seed:      2005,
		MinTasks:  20,
		MaxTasks:  200,
	}))
	ctx := context.Background()
	resp, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Campaign
	if r == nil || len(r.Rows) != 50 {
		t.Fatalf("want 50 rows, got %+v", r)
	}
	if r.Failed != 0 {
		t.Errorf("%d cells failed", r.Failed)
	}
	sawSmall, sawLarge := false, false
	shapes := map[string]int{}
	for _, row := range r.Rows {
		if row.Tasks < 20 || row.Tasks > 200 {
			t.Errorf("row %s has %d tasks outside [20, 200]", row.Scenario, row.Tasks)
		}
		if row.Tasks < 80 {
			sawSmall = true
		}
		if row.Tasks > 140 {
			sawLarge = true
		}
		shapes[row.Shape]++
	}
	if !sawSmall || !sawLarge {
		t.Errorf("task sizes did not span the range (small=%v large=%v)", sawSmall, sawLarge)
	}
	if len(shapes) < 2 {
		t.Errorf("campaign drew only shapes %v, want both", shapes)
	}
	if len(r.Duels) != 1 || r.Duels[0].Compared == 0 {
		t.Fatalf("duel missing or empty: %+v", r.Duels)
	}
	// Determinism at scale: rerun and compare the serialized report.
	again, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(resp.Campaign)
	b, _ := json.Marshal(again.Campaign)
	if string(a) != string(b) {
		t.Error("50-scenario campaign is not deterministic")
	}
}

// The paper's headline in distribution: over a default campaign (the
// randomized heuristic-3 vs thermal study), the thermal-aware ASP wins
// peak temperature strictly on a clear majority of the compared
// scenarios, with a positive mean reduction. The average-temperature
// advantage is instance-dependent (average temperature in a compact RC
// model is almost a pure function of total power, which heuristic 3
// already near-minimizes), so no floor is asserted for it: this family
// gives thermal 6/30 avg-temp wins at a −0.70 °C mean reduction.
func TestCampaignStatisticalWin(t *testing.T) {
	if testing.Short() {
		t.Skip("30-scenario campaign skipped in -short mode")
	}
	resp, err := testEngine(t).Run(context.Background(), NewRequest(FlowCampaign,
		WithCampaign(CampaignSpec{Scenarios: 30, Seed: 7})))
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Campaign
	if r.Reference != "thermal" || len(r.Duels) != 1 || r.Duels[0].Opponent != "heuristic3" {
		t.Fatalf("default campaign is not thermal vs heuristic3:\n%s", r)
	}
	d := r.Duels[0]
	if d.Compared == 0 {
		t.Fatalf("no scenario feasible under both policies\n%s", r)
	}
	if rate := float64(d.MaxTempWins) / float64(d.Compared); rate < 0.55 {
		t.Errorf("thermal max-temp strict win rate %.0f%% below 55%%\n%s", 100*rate, r)
	}
	if d.MeanMaxRedC <= 0 {
		t.Errorf("mean peak reduction non-positive\n%s", r)
	}
	// Wins and ties partition at most the compared scenarios.
	for _, c := range []struct {
		name       string
		wins, ties int
	}{
		{"max", d.MaxTempWins, d.MaxTempTies},
		{"avg", d.AvgTempWins, d.AvgTempTies},
		{"power", d.PowerWins, d.PowerTies},
		{"throttle", d.ThrottleWins, d.ThrottleTies},
		{"miss rate", d.MissRateWins, d.MissRateTies},
		{"peak", d.PeakTempWins, d.PeakTempTies},
	} {
		if c.wins+c.ties > d.Compared {
			t.Errorf("%s: wins %d + ties %d exceed compared %d", c.name, c.wins, c.ties, d.Compared)
		}
	}
}

// Exact ties (identical schedules under both policies) count as ties,
// never as wins; only deltas above the epsilon are wins.
func TestTallyOutcome(t *testing.T) {
	cases := []struct {
		delta      float64
		wins, ties int
	}{
		{0, 0, 1},               // exact tie: identical schedules
		{winEpsilon / 2, 0, 1},  // sub-epsilon noise is a tie
		{-winEpsilon / 2, 0, 1}, // ... in either direction
		{1.5, 1, 0},             // genuine improvement
		{-1.5, 0, 0},            // genuine regression: neither win nor tie
	}
	for _, c := range cases {
		wins, ties := 0, 0
		tallyOutcome(c.delta, &wins, &ties)
		if wins != c.wins || ties != c.ties {
			t.Errorf("tallyOutcome(%g) = wins %d ties %d, want %d/%d", c.delta, wins, ties, c.wins, c.ties)
		}
	}
}

func TestCampaignSimulateMode(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulating campaign skipped in -short mode")
	}
	e := testEngine(t)
	resp, err := e.Run(context.Background(), NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
		Scenarios: 3,
		Seed:      8,
		MinTasks:  20,
		MaxTasks:  30,
		Simulate:  &SimulateSpec{Seed: 1, MinFactor: 0.9},
	})))
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Campaign
	if r == nil || !r.Simulated {
		t.Fatal("simulate-mode campaign not marked simulated")
	}
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if c.Error != "" {
				t.Fatalf("cell %s/%s failed: %s", row.Scenario, c.Policy, c.Error)
			}
			if !(c.RealizedMakespan > 0) || !(c.PeakTempC > 0) {
				t.Errorf("cell %s/%s missing realized columns: %+v", row.Scenario, c.Policy, c)
			}
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	bad := []Request{
		NewRequest(FlowCampaign, WithBenchmark("Bm1")),
		NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Scenarios: MaxCampaignScenarios + 1})),
		NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Policies: []string{"nope"}})),
		NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Policies: []string{"h3", "heuristic3"}})),
		NewRequest(FlowCampaign, WithCampaign(CampaignSpec{MinTasks: 50, MaxTasks: 20})),
		NewRequest(FlowCampaign, WithCampaign(CampaignSpec{MinTasks: 999999, MaxTasks: 999999})),
		NewRequest(FlowGenerate),
		NewRequest(FlowGenerate, WithBenchmark("Bm1"), WithScenario(ScenarioSpec{})),
		NewRequest(FlowPlatform, WithBenchmark("Bm1"), WithScenario(ScenarioSpec{})),
		NewRequest(FlowPlatform, WithCampaign(CampaignSpec{})),
		NewRequest(FlowCampaign, WithScenario(ScenarioSpec{})),
		NewRequest(FlowPlatform, WithScenario(ScenarioSpec{Graph: ScenarioGraphParams{Tasks: -2}})),
	}
	for i, req := range bad {
		if err := req.Validate(); err == nil {
			t.Errorf("bad request %d validated: %+v", i, req)
		}
	}
	good := []Request{
		NewRequest(FlowCampaign),
		NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Policies: []string{"baseline", "h3", "thermal"}})),
		NewRequest(FlowGenerate, WithScenario(ScenarioSpec{})),
		NewRequest(FlowSimulate, WithScenario(ScenarioSpec{}), WithSimulate(SimulateSpec{Replicas: 2})),
	}
	for i, req := range good {
		if err := req.Validate(); err != nil {
			t.Errorf("good request %d rejected: %v", i, err)
		}
	}
}

// The throttle duel follows the same strict-win-plus-ties treatment as
// the temperature and power duels: deltas inside ±winEpsilon are ties,
// not wins (a raw < used to count the reference as non-winning on
// exact ties and sub-epsilon noise as wins).
func TestCampaignThrottleDuelEpsilonAndTies(t *testing.T) {
	eps := winEpsilon
	rows := []CampaignRow{
		// Exact tie: identical throttle times must count as a tie.
		{Scenario: "tie", Cells: []CampaignCell{
			{Policy: "thermal", Feasible: true, ThrottleTime: 10},
			{Policy: "heuristic3", Feasible: true, ThrottleTime: 10},
		}},
		// Sub-epsilon noise in either direction: also a tie, not a win.
		{Scenario: "noise+", Cells: []CampaignCell{
			{Policy: "thermal", Feasible: true, ThrottleTime: 10},
			{Policy: "heuristic3", Feasible: true, ThrottleTime: 10 + eps/2},
		}},
		{Scenario: "noise-", Cells: []CampaignCell{
			{Policy: "thermal", Feasible: true, ThrottleTime: 10},
			{Policy: "heuristic3", Feasible: true, ThrottleTime: 10 - eps/2},
		}},
		// Genuine win: the reference throttles strictly less.
		{Scenario: "win", Cells: []CampaignCell{
			{Policy: "thermal", Feasible: true, ThrottleTime: 5},
			{Policy: "heuristic3", Feasible: true, ThrottleTime: 9},
		}},
		// Genuine loss: neither a win nor a tie.
		{Scenario: "loss", Cells: []CampaignCell{
			{Policy: "thermal", Feasible: true, ThrottleTime: 9},
			{Policy: "heuristic3", Feasible: true, ThrottleTime: 5},
		}},
	}
	r := &CampaignReport{
		Scenarios: len(rows),
		Policies:  []string{"thermal", "heuristic3"},
		Reference: "thermal",
		Simulated: true,
		Rows:      rows,
	}
	aggregateCampaign(r)
	if len(r.Duels) != 1 {
		t.Fatalf("want 1 duel, got %d", len(r.Duels))
	}
	d := r.Duels[0]
	if d.Compared != 5 {
		t.Errorf("Compared = %d, want 5", d.Compared)
	}
	if d.ThrottleWins != 1 {
		t.Errorf("ThrottleWins = %d, want 1 (strict wins only)", d.ThrottleWins)
	}
	if d.ThrottleTies != 3 {
		t.Errorf("ThrottleTies = %d, want 3 (exact tie + sub-epsilon noise both ways)", d.ThrottleTies)
	}
	if !strings.Contains(r.String(), "3 ties") {
		t.Errorf("summary does not report throttle ties:\n%s", r.String())
	}
}
