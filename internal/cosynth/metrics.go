// Package cosynth implements the two flows of the paper's Figure 1:
//
//   - Fig. 1a, co-synthesis: deadline-driven selection of a customized
//     heterogeneous PE set, with the ASP as the inner routine and the
//     thermal-aware GA floorplanner + HotSpot model in the loop;
//   - Fig. 1b, platform-based design: a fixed platform of four identical
//     PEs with a fixed floorplan, where the ASP issues thermal inquiries
//     against the pre-built model.
//
// One simplification against the literal figure: instead of invoking
// the floorplanner inside every ASP assignment step, each candidate
// architecture is floorplanned once (thermal-aware when the policy is
// thermal-aware) using power estimates from a pilot schedule; the ASP
// then runs with a thermal model of that fixed floorplan. This keeps the flow's structure — floorplanning and
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
// platform run, and the final plans co-synthesis schedules on —
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
	Metrics  Metrics
	// PEPower is each PE's average power over the graph's deadline (W),
	// in Arch order, and Temps the steady-state block temperatures it
	// gives, the solve behind Metrics' temperature columns.
	PEPower []float64
	Temps   hotspot.Temps
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

// computeMetrics scores a finished schedule against the thermal model of
// its floorplan: one steady-state solve of the per-PE average powers
// gives the paper's table columns and each PE's operating point.
func computeMetrics(s *sched.Schedule, plan *floorplan.Floorplan, model *hotspot.Model, oracle *sched.ModelOracle) (*Result, error) {
	pow, err := s.PEAveragePower(s.Graph.Deadline)
	if err != nil {
		return nil, err
	}
	temps, err := oracle.Temps(pow)
	if err != nil {
		return nil, fmt.Errorf("cosynth: final temperature extraction: %w", err)
	}
	return &Result{
		Schedule: s, Arch: s.Arch, Plan: plan, Model: model,
		Metrics: Metrics{
			TotalPower: s.TotalPower(),
			MaxTemp:    temps.Max(),
			AvgTemp:    temps.Avg(),
			Makespan:   s.Makespan,
			Feasible:   s.MeetsDeadline(),
			Cost:       s.Arch.TotalCost(s.Lib),
		},
		PEPower: pow,
		Temps:   temps,
	}, nil
}
