package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/scenario"
	"thermalsched/internal/sched"
)

// ScalingRow is one task-count point of the scaling study.
type ScalingRow struct {
	Tasks    int     `json:"tasks"`
	Edges    int     `json:"edges"`
	PEs      int     `json:"pes"`
	Deadline float64 `json:"deadline"`
	Makespan float64 `json:"makespan"`
	Feasible bool    `json:"feasible"`
	MaxTempC float64 `json:"maxTempC"`
	AvgTempC float64 `json:"avgTempC"`
	// CacheHits and CacheMisses are the thermal-model cache's deltas
	// over this row (zero when no stats hook is wired): one miss is the
	// row's single factorization, hits count the runs that reused it.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	// SchedMillis is the wall-clock cost of the whole platform run
	// (scheduling plus thermal extraction) — the number the PR-2 fast
	// path keeps flat-ish as task counts grow.
	SchedMillis float64 `json:"schedMillis"`
}

// ScalingTable is the repository's first beyond-the-paper table: the
// thermal-aware platform flow driven up task counts the paper's four
// benchmarks never reach, on a generated heterogeneous platform.
type ScalingTable struct {
	Policy sched.Policy `json:"-"`
	PEs    int          `json:"pes"`
	Seed   int64        `json:"seed"`
	Rows   []ScalingRow `json:"rows"`
}

// CacheStats reports cumulative thermal-model cache counters; the
// Engine passes its ModelCacheStats so each scaling row can record the
// cache traffic it generated. Nil disables the accounting.
type CacheStats func() (hits, misses uint64, size int)

// DefaultScalingSizes are the task counts of the scaling study, from
// the paper's benchmark scale (≈20 tasks) to 25× beyond it.
func DefaultScalingSizes() []int { return []int{20, 50, 100, 200, 500} }

// RunScalingTable generates one scenario per task count (layered shape,
// heterogeneous speed spread 0.6–2.0, grid floorplan) and runs the
// thermal-aware platform flow on it, recording schedule quality and
// wall-clock scheduling cost. base supplies the thermal calibration
// and model cache (the Engine passes its own); Policy
// and Sched on base are ignored. stats, when non-nil, supplies the
// cumulative model-cache counters the per-row deltas are computed from.
// The generated inputs are deterministic in (sizes, pes, seed); only
// SchedMillis (and the cache traffic, which depends on prior cache
// state) varies between runs.
func RunScalingTable(ctx context.Context, sizes []int, pes int, seed int64, base cosynth.PlatformConfig, stats CacheStats) (*ScalingTable, error) {
	if len(sizes) == 0 {
		sizes = DefaultScalingSizes()
	}
	if pes == 0 {
		pes = 8
	}
	t := &ScalingTable{Policy: sched.ThermalAware, PEs: pes, Seed: seed}
	for _, n := range sizes {
		sc, err := scenario.Generate(scenario.Spec{
			Name: fmt.Sprintf("scale%d", n),
			Seed: seed + int64(n),
			Graph: scenario.GraphParams{
				Tasks: n,
				CCR:   0.1,
			},
			Platform: scenario.PlatformParams{
				PEs:      pes,
				MinSpeed: 0.6,
				MaxSpeed: 2.0,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling %d tasks: %w", n, err)
		}
		cfg := base
		cfg.Policy, cfg.Sched = sched.ThermalAware, nil
		cfg.Platform = &cosynth.PlatformDesc{TypeNames: sc.PETypeNames, Layout: sc.Layout}
		var hits0, misses0 uint64
		if stats != nil {
			hits0, misses0, _ = stats()
		}
		//thermalvet:allow walltime(SchedMillis measures scheduler latency for the scaling table; the table is documented deterministic modulo wall-clock)
		start := time.Now()
		res, err := cosynth.RunPlatform(ctx, sc.Graph, sc.Lib, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling %d tasks: %w", n, err)
		}
		row := ScalingRow{
			Tasks:    n,
			Edges:    sc.Graph.NumEdges(),
			PEs:      pes,
			Deadline: sc.Graph.Deadline,
			Makespan: res.Metrics.Makespan,
			Feasible: res.Metrics.Feasible,
			MaxTempC: res.Metrics.MaxTemp,
			AvgTempC: res.Metrics.AvgTemp,
			//thermalvet:allow walltime(SchedMillis measures scheduler latency for the scaling table; the table is documented deterministic modulo wall-clock)
			SchedMillis: float64(time.Since(start)) / float64(time.Millisecond),
		}
		if stats != nil {
			hits1, misses1, _ := stats()
			row.CacheHits, row.CacheMisses = hits1-hits0, misses1-misses0
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// String renders the scaling table.
func (t *ScalingTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling study: thermal-aware platform flow on a generated %d-PE heterogeneous platform (seed %d)\n",
		t.PEs, t.Seed)
	fmt.Fprintf(&b, "%7s %7s | %9s %9s %8s | %9s %9s | %5s/%-5s | %9s\n",
		"tasks", "edges", "makespan", "deadline", "feas", "MaxTemp", "AvgTemp", "hit", "miss", "sched ms")
	for _, r := range t.Rows {
		feas := "met"
		if !r.Feasible {
			feas = "MISSED"
		}
		fmt.Fprintf(&b, "%7d %7d | %9.1f %9.1f %8s | %9.2f %9.2f | %5d/%-5d | %9.2f\n",
			r.Tasks, r.Edges, r.Makespan, r.Deadline, feas, r.MaxTempC, r.AvgTempC,
			r.CacheHits, r.CacheMisses, r.SchedMillis)
	}
	return b.String()
}
