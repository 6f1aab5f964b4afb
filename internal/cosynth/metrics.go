// Package cosynth implements the two flows of the paper's Figure 1:
//
//   - Fig. 1a, co-synthesis: deadline-driven selection of a customized
//     heterogeneous PE set, with the ASP as the inner routine and the
//     thermal-aware GA floorplanner + HotSpot model in the loop;
//   - Fig. 1b, platform-based design: a fixed platform of four identical
//     PEs with a fixed floorplan, where the ASP issues thermal inquiries
//     against the pre-built model.
//
// One simplification against the literal figure is documented in
// DESIGN.md: instead of invoking the floorplanner inside every ASP
// assignment step, each candidate architecture is floorplanned once
// (thermal-aware when the policy is thermal-aware) using power estimates
// from a pilot schedule; the ASP then runs with a thermal model of that
// fixed floorplan. This keeps the flow's structure — floorplanning and
// temperature extraction inside the co-synthesis loop — at a tractable
// cost.
package cosynth

import (
	"fmt"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
)

// Metrics are the three columns of the paper's tables plus context.
// The JSON field names are part of the serialized Response schema of
// the thermalsched Engine API and the thermschedd service.
type Metrics struct {
	TotalPower float64 `json:"totalPowerW"` // total energy / deadline, W (the "Total Pow." column)
	MaxTemp    float64 `json:"maxTempC"`    // peak steady-state block temperature, °C
	AvgTemp    float64 `json:"avgTempC"`    // average steady-state block temperature, °C
	Makespan   float64 `json:"makespan"`
	Feasible   bool    `json:"feasible"` // makespan ≤ deadline
	Cost       float64 `json:"cost"`     // summed PE cost (co-synthesis objective)
}

// ModelProvider constructs (or recalls) the thermal model of a
// floorplan under a configuration. The Engine layer injects a caching
// provider here so repeated flows over the same floorplan — every
// platform run, and repeated candidate layouts inside co-synthesis —
// reuse one factorization. A nil provider means hotspot.NewModel.
// Providers must be safe for concurrent use and must return models
// that are safe for concurrent read-only use (as hotspot.NewModel's
// are).
type ModelProvider func(fp *floorplan.Floorplan, cfg hotspot.Config) (*hotspot.Model, error)

// newModel resolves a possibly-nil provider.
func (p ModelProvider) newModel(fp *floorplan.Floorplan, cfg hotspot.Config) (*hotspot.Model, error) {
	if p == nil {
		return hotspot.NewModel(fp, cfg)
	}
	return p(fp, cfg)
}

// Result is the outcome of one flow run.
type Result struct {
	Schedule *sched.Schedule
	Arch     sched.Architecture
	Plan     *floorplan.Floorplan
	Model    *hotspot.Model
	Oracle   *sched.ModelOracle
	Metrics  Metrics
	// SearchEvals and SearchMemoHits aggregate the floorplanner's
	// packing-evaluation accounting over every candidate architecture a
	// co-synthesis run explored (zero for platform runs, whose layout is
	// fixed). The chosen architecture and schedule are byte-identical at
	// every parallelism level; the counters themselves can run higher
	// under parallelism, which speculatively evaluates prune candidates
	// the serial scan skips.
	SearchEvals    int
	SearchMemoHits int
}

// computeMetrics evaluates the paper's table columns for a finished
// schedule against its thermal model.
func computeMetrics(s *sched.Schedule, oracle *sched.ModelOracle) (Metrics, error) {
	pow, err := s.PEAveragePower(s.Graph.Deadline)
	if err != nil {
		return Metrics{}, err
	}
	temps, err := oracle.Temps(pow)
	if err != nil {
		return Metrics{}, fmt.Errorf("cosynth: final temperature extraction: %w", err)
	}
	return Metrics{
		TotalPower: s.TotalPower(),
		MaxTemp:    temps.Max(),
		AvgTemp:    temps.Avg(),
		Makespan:   s.Makespan,
		Feasible:   s.MeetsDeadline(),
		Cost:       s.Arch.TotalCost(s.Lib),
	}, nil
}
