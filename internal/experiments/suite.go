// Package experiments regenerates the paper's evaluation artifacts:
// Table 1 (power-heuristic comparison under co-synthesis and
// platform-based architectures), Table 2 (power-aware vs thermal-aware
// co-synthesis), and Table 3 (power-aware vs thermal-aware platform),
// plus the repository's own ablations. Output formatting mirrors the
// paper's row/column layout so the tables can be compared side by side.
package experiments

import (
	"context"
	"fmt"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// Cell mirrors one benchmark × approach entry of the paper's tables.
type Cell struct {
	TotalPower float64
	MaxTemp    float64
	AvgTemp    float64
	Makespan   float64
	Feasible   bool
}

func cellOf(m cosynth.Metrics) Cell {
	return Cell{
		TotalPower: m.TotalPower,
		MaxTemp:    m.MaxTemp,
		AvgTemp:    m.AvgTemp,
		Makespan:   m.Makespan,
		Feasible:   m.Feasible,
	}
}

// Suite bundles the shared inputs of all experiments.
type Suite struct {
	Lib    *techlib.Library
	Graphs []*taskgraph.Graph
	// FloorplanGenerations bounds the GA effort inside co-synthesis.
	FloorplanGenerations int

	// cache avoids rerunning identical (benchmark, policy, flow) points
	// across tables.
	cosynthCache  map[string]Cell
	platformCache map[string]Cell
}

// NewSuite builds the standard suite: the four paper benchmarks over the
// standard technology library.
func NewSuite() (*Suite, error) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		return nil, err
	}
	graphs, err := taskgraph.Benchmarks()
	if err != nil {
		return nil, err
	}
	return &Suite{
		Lib:                  lib,
		Graphs:               graphs,
		FloorplanGenerations: 20,
		cosynthCache:         make(map[string]Cell),
		platformCache:        make(map[string]Cell),
	}, nil
}

// CoSynthCell runs (or recalls) the co-synthesis flow for one benchmark
// and policy.
func (s *Suite) CoSynthCell(g *taskgraph.Graph, p sched.Policy) (Cell, error) {
	key := g.Name + "/" + p.String()
	if c, ok := s.cosynthCache[key]; ok {
		return c, nil
	}
	res, err := cosynth.RunCoSynthesis(context.Background(), g, s.Lib, cosynth.CoSynthConfig{
		Policy:               p,
		FloorplanGenerations: s.FloorplanGenerations,
	})
	if err != nil {
		return Cell{}, fmt.Errorf("experiments: co-synthesis %s/%s: %w", g.Name, p, err)
	}
	c := cellOf(res.Metrics)
	s.cosynthCache[key] = c
	return c, nil
}

// PlatformCell runs (or recalls) the platform flow for one benchmark and
// policy.
func (s *Suite) PlatformCell(g *taskgraph.Graph, p sched.Policy) (Cell, error) {
	key := g.Name + "/" + p.String()
	if c, ok := s.platformCache[key]; ok {
		return c, nil
	}
	res, err := cosynth.RunPlatform(context.Background(), g, s.Lib, cosynth.PlatformConfig{Policy: p})
	if err != nil {
		return Cell{}, fmt.Errorf("experiments: platform %s/%s: %w", g.Name, p, err)
	}
	c := cellOf(res.Metrics)
	s.platformCache[key] = c
	return c, nil
}

// benchLabel formats the paper's "name/tasks/edges/deadline" row label.
func benchLabel(g *taskgraph.Graph) string {
	return fmt.Sprintf("%s/%d/%d/%.0f", g.Name, g.NumTasks(), g.NumEdges(), g.Deadline)
}
