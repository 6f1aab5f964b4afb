package experiments

import (
	"context"
	"strings"
	"testing"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/techlib"
)

func TestRunSweepStatisticalWin(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(context.Background(), lib, 30, 7, cosynth.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FeasibleBoth < 15 {
		t.Fatalf("only %d/30 sweep graphs feasible — deadline scaling off", res.FeasibleBoth)
	}
	// The robust part of the paper's headline in distribution: the
	// thermal-aware ASP wins *peak* temperature on a clear majority of
	// random graphs with a positive mean reduction. The average-
	// temperature advantage is instance-dependent (average temperature
	// in a compact RC model is almost a pure function of total power,
	// which heuristic 3 already near-minimizes), so only a sanity floor
	// is asserted for it; see EXPERIMENTS.md for the discussion.
	// Win rates are over *strict* wins now: a graph where both policies
	// produce the identical schedule is a tie, not a win.
	winRate := func(wins int) float64 { return float64(wins) / float64(res.FeasibleBoth) }
	if winRate(res.MaxWins) < 0.55 {
		t.Errorf("thermal max-temp strict win rate %.0f%% below 55%%\n%s", 100*winRate(res.MaxWins), res)
	}
	if res.MeanMaxRed <= 0 {
		t.Errorf("mean peak reduction non-positive\n%s", res)
	}
	if winRate(res.AvgWins) < 0.3 {
		t.Errorf("thermal avg-temp strict win rate %.0f%% collapsed below 30%%\n%s", 100*winRate(res.AvgWins), res)
	}
	// Wins and ties partition at most the feasible graphs.
	for _, c := range []struct {
		name       string
		wins, ties int
	}{
		{"max", res.MaxWins, res.MaxTies},
		{"avg", res.AvgWins, res.AvgTies},
		{"power", res.PowerWins, res.PowerTies},
	} {
		if c.wins+c.ties > res.FeasibleBoth {
			t.Errorf("%s: wins %d + ties %d exceed feasible %d", c.name, c.wins, c.ties, res.FeasibleBoth)
		}
	}
	out := res.String()
	if !strings.Contains(out, "thermal wins max temp") || !strings.Contains(out, "ties") {
		t.Errorf("summary malformed: %s", out)
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
		{WinEpsilon / 2, 0, 1},  // sub-epsilon noise is a tie
		{-WinEpsilon / 2, 0, 1}, // ... in either direction
		{1.5, 1, 0},             // genuine improvement
		{-1.5, 0, 0},            // genuine regression: neither win nor tie
	}
	for _, c := range cases {
		wins, ties := 0, 0
		TallyOutcome(c.delta, &wins, &ties)
		if wins != c.wins || ties != c.ties {
			t.Errorf("TallyOutcome(%g) = wins %d ties %d, want %d/%d", c.delta, wins, ties, c.wins, c.ties)
		}
	}
}

func TestRunSweepValidation(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(context.Background(), lib, 0, 1, cosynth.PlatformConfig{}); err == nil {
		t.Error("zero count accepted")
	}
}

func TestSweepResultStringEmpty(t *testing.T) {
	r := &SweepResult{Graphs: 5}
	if !strings.Contains(r.String(), "0 feasible") {
		t.Errorf("empty sweep summary: %s", r.String())
	}
}
