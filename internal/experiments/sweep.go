package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// SweepResult aggregates a randomized robustness study: the paper
// evaluates four hand-picked benchmarks; the sweep re-runs the
// power-aware vs thermal-aware platform comparison over many random
// task graphs and reports win rates and mean reductions, so the headline
// claim is backed by a distribution rather than four samples.
type SweepResult struct {
	Graphs       int `json:"graphs"`
	FeasibleBoth int `json:"feasibleBoth"` // graphs where both policies met the deadline
	// Wins are strict: the thermal-aware metric must improve on the
	// power-aware one by more than WinEpsilon. Graphs where the two
	// policies land within WinEpsilon of each other — typically because
	// both produced the identical schedule — are counted as ties, not
	// wins.
	MaxWins       int     `json:"maxWins"`   // thermal max-temp wins among FeasibleBoth
	AvgWins       int     `json:"avgWins"`   // thermal avg-temp wins among FeasibleBoth
	PowerWins     int     `json:"powerWins"` // thermal total-power wins among FeasibleBoth
	MaxTies       int     `json:"maxTies"`
	AvgTies       int     `json:"avgTies"`
	PowerTies     int     `json:"powerTies"`
	MeanMaxRed    float64 `json:"meanMaxRedC"`
	MeanAvgRed    float64 `json:"meanAvgRedC"`
	MeanPowerRedW float64 `json:"meanPowerRedW"`
}

// WinEpsilon separates a genuine metric improvement from floating-point
// noise: deltas within ±WinEpsilon (°C or W) count as ties. Identical
// schedules produce bit-identical metrics, so any honest improvement
// clears this comfortably.
const WinEpsilon = 1e-9

// tallyOutcome classifies one power-minus-thermal delta: a strict win
// (delta > WinEpsilon), a tie (|delta| ≤ WinEpsilon), or a loss.
func tallyOutcome(delta float64, wins, ties *int) {
	switch {
	case delta > WinEpsilon:
		*wins++
	case delta >= -WinEpsilon:
		*ties++
	}
}

// RunSweep generates count random task graphs (sizes spanning the
// paper's benchmark range) and compares heuristic 3 against the
// thermal-aware ASP on the platform flow, with ctx threaded into every
// scheduling run of the study. The HotSpot, Models and BusTimePerUnit
// settings of base apply to every run — the Engine passes its thermal
// calibration and model cache here; the zero value uses the defaults.
// Policy and Sched are set per run and ignored on base.
func RunSweep(ctx context.Context, lib *techlib.Library, count int, seed int64, base cosynth.PlatformConfig) (*SweepResult, error) {
	if count < 1 {
		return nil, fmt.Errorf("experiments: sweep count %d", count)
	}
	rng := rand.New(rand.NewSource(seed))
	res := &SweepResult{Graphs: count}
	for i := 0; i < count; i++ {
		tasks := 15 + rng.Intn(40)
		minE := tasks - 1
		maxE := minE + tasks/2
		edges := minE + rng.Intn(maxE-minE+1)
		// Deadline scaled to task count with moderate slack, matching the
		// density of the paper's benchmarks (~40 units of deadline per
		// task on a 4-PE platform).
		deadline := float64(tasks) * (38 + 8*rng.Float64())
		g, err := taskgraph.Generate(taskgraph.GenParams{
			Name: fmt.Sprintf("sweep%d", i), Tasks: tasks, Edges: edges,
			Deadline: deadline, Types: taskgraph.NumTaskTypes,
			Sources: 1 + rng.Intn(2), MaxData: 40, Seed: rng.Int63(),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep graph %d: %w", i, err)
		}
		pCfg := base
		pCfg.Policy, pCfg.Sched = sched.MinTaskEnergy, nil
		pRes, err := cosynth.RunPlatform(ctx, g, lib, pCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep %d power run: %w", i, err)
		}
		tCfg := base
		tCfg.Policy, tCfg.Sched = sched.ThermalAware, nil
		tRes, err := cosynth.RunPlatform(ctx, g, lib, tCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep %d thermal run: %w", i, err)
		}
		if !pRes.Metrics.Feasible || !tRes.Metrics.Feasible {
			continue
		}
		res.FeasibleBoth++
		dMax := pRes.Metrics.MaxTemp - tRes.Metrics.MaxTemp
		dAvg := pRes.Metrics.AvgTemp - tRes.Metrics.AvgTemp
		dPow := pRes.Metrics.TotalPower - tRes.Metrics.TotalPower
		res.MeanMaxRed += dMax
		res.MeanAvgRed += dAvg
		res.MeanPowerRedW += dPow
		tallyOutcome(dMax, &res.MaxWins, &res.MaxTies)
		tallyOutcome(dAvg, &res.AvgWins, &res.AvgTies)
		tallyOutcome(dPow, &res.PowerWins, &res.PowerTies)
	}
	if res.FeasibleBoth > 0 {
		n := float64(res.FeasibleBoth)
		res.MeanMaxRed /= n
		res.MeanAvgRed /= n
		res.MeanPowerRedW /= n
	}
	return res, nil
}

// String renders the sweep summary.
func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Randomized sweep: %d graphs, %d feasible under both policies\n",
		r.Graphs, r.FeasibleBoth)
	if r.FeasibleBoth == 0 {
		return b.String()
	}
	n := float64(r.FeasibleBoth)
	fmt.Fprintf(&b, "  thermal wins max temp on %d/%d (%.0f%%, %d ties), mean reduction %.2f °C\n",
		r.MaxWins, r.FeasibleBoth, 100*float64(r.MaxWins)/n, r.MaxTies, r.MeanMaxRed)
	fmt.Fprintf(&b, "  thermal wins avg temp on %d/%d (%.0f%%, %d ties), mean reduction %.2f °C\n",
		r.AvgWins, r.FeasibleBoth, 100*float64(r.AvgWins)/n, r.AvgTies, r.MeanAvgRed)
	fmt.Fprintf(&b, "  thermal wins total power on %d/%d (%.0f%%, %d ties), mean reduction %.2f W\n",
		r.PowerWins, r.FeasibleBoth, 100*float64(r.PowerWins)/n, r.PowerTies, r.MeanPowerRedW)
	return b.String()
}
