package runtime

import (
	"fmt"
	"math/rand"
	"sort"

	"thermalsched/internal/coloop"
	"thermalsched/internal/sched"
)

// TaskRecord is the realized execution of one task.
type TaskRecord struct {
	Task   int
	PE     int
	Start  float64
	Finish float64
	Power  float64 // nominal power draw while executing, W
	// Skipped marks a task whose branch was not taken in a conditional
	// run; its timing fields are zero.
	Skipped bool
}

// Realization is the seeded random draw one simulated execution runs
// under: per-task actual durations and, for conditional graphs, the
// realized branch decisions. Drawing it separately from replaying it
// keeps the deterministic-seed contract in one place: the same
// schedule, MinFactor, Seed and Conditional realize identical durations
// and branches whatever supervisor the run is stepped under, so
// throttled and unthrottled results of the same replica are directly
// comparable.
type Realization struct {
	// Actual is the realized duration of each task, indexed by task ID
	// (WCET × uniform[MinFactor, 1], drawn in task-ID order).
	Actual []float64
	// Executes marks tasks whose branch was taken; always all-true for
	// unconditional runs.
	Executes []bool

	fired map[[2]int]bool
}

// Fired reports whether the edge from→to carried data in this
// realization (its source executed and, for conditional edges, its
// branch was drawn).
func (r *Realization) Fired(from, to int) bool { return r.fired[[2]int{from, to}] }

// Realize draws the seeded execution-time factors and branch decisions
// for one run of the schedule under cfg's MinFactor, Seed and
// Conditional. cfg must have passed Validate, as Simulate checks.
func Realize(s *sched.Schedule, cfg Config) (*Realization, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := s.Graph.NumTasks()

	// Actual durations: WCET × the shared factor draw, in task-ID order.
	factors := coloop.DrawFactors(rng, n, cfg.MinFactor)
	actual := make([]float64, n)
	for id := 0; id < n; id++ {
		a := s.Assignments[id]
		wcet := a.Finish - a.Start
		actual[id] = wcet * factors[id]
	}

	// Branch realization (conditional runs): per branch node, draw one
	// uniform variate and fire the sibling conditional edge whose
	// cumulative-probability interval contains it — mutually exclusive
	// branches, exactly one (or none, if probabilities sum below 1).
	// Unconditional edges always fire when their source executes.
	executes := make([]bool, n)
	firedEdge := make(map[[2]int]bool, s.Graph.NumEdges())
	if cfg.Conditional {
		if err := s.Graph.ValidateProbabilities(); err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
		for _, id := range s.Graph.TopoOrder() {
			if s.Graph.InDegree(id) == 0 {
				executes[id] = true
			}
			if !executes[id] {
				continue
			}
			u := rng.Float64()
			cum := 0.0
			for _, e := range s.Graph.Successors(id) {
				key := [2]int{e.From, e.To}
				if !e.IsConditional() {
					firedEdge[key] = true
					executes[e.To] = true
					continue
				}
				lo := cum
				cum += e.Prob
				if u >= lo && u < cum {
					firedEdge[key] = true
					executes[e.To] = true
				}
			}
		}
	} else {
		for id := range executes {
			executes[id] = true
		}
		for _, e := range s.Graph.Edges() {
			firedEdge[[2]int{e.From, e.To}] = true
		}
	}
	return &Realization{Actual: actual, Executes: executes, fired: firedEdge}, nil
}

// DispatchQueues returns the per-PE dispatch order implied by the
// schedule: task IDs grouped by assigned PE, each queue sorted by static
// start time. Simulate dispatches in exactly this order, so throttling
// can stretch tasks but never reorder them.
func DispatchQueues(s *sched.Schedule) [][]int {
	queues := make([][]int, len(s.Arch.PEs))
	for id := 0; id < s.Graph.NumTasks(); id++ {
		pe := s.Assignments[id].PE
		queues[pe] = append(queues[pe], id)
	}
	for pe := range queues {
		q := queues[pe]
		sort.Slice(q, func(i, j int) bool {
			return s.Assignments[q[i]].Start < s.Assignments[q[j]].Start
		})
	}
	return queues
}

// CheckExecution reports the first way records break schedule s under
// the realization real: a task off its record or its assigned PE, a
// negative duration, two executed tasks overlapping on a PE, or a fired
// edge (with bus delay across PEs) not honoured. An edge real did not
// fire carried no data, so it constrains nothing even when both its
// ends executed, just as dispatch (Simulate's ready rule) ignores it. A
// nil real treats every edge as fired. Durations are not compared with
// the schedule: realized factors and closed-loop throttling change them.
func CheckExecution(s *sched.Schedule, records []TaskRecord, real *Realization) error {
	const tol = 1e-9
	n := s.Graph.NumTasks()
	if len(records) != n {
		return fmt.Errorf("runtime: %d records for %d tasks", len(records), n)
	}
	for id, rec := range records {
		if rec.Task != id {
			return fmt.Errorf("runtime: record %d holds task %d", id, rec.Task)
		}
		if rec.PE != s.Assignments[id].PE {
			return fmt.Errorf("runtime: task %d migrated from its assigned PE", id)
		}
		if rec.Skipped {
			continue
		}
		if rec.Finish < rec.Start-tol {
			return fmt.Errorf("runtime: task %d has negative duration", id)
		}
	}
	for _, e := range s.Graph.Edges() {
		from, to := records[e.From], records[e.To]
		if from.Skipped || to.Skipped {
			continue
		}
		if real != nil && !real.Fired(e.From, e.To) {
			continue // edge's branch was not taken; no data dependency
		}
		ready := from.Finish
		if from.PE != to.PE {
			ready += e.Data * s.Arch.BusTimePerUnit
		}
		if to.Start < ready-tol {
			return fmt.Errorf("runtime: edge %d->%d violated", e.From, e.To)
		}
	}
	byPE := make(map[int][]TaskRecord)
	for _, rec := range records {
		if rec.Skipped {
			continue
		}
		byPE[rec.PE] = append(byPE[rec.PE], rec)
	}
	// Walk PEs in sorted order so which overlap gets reported never
	// depends on map iteration order.
	pes := make([]int, 0, len(byPE))
	for pe := range byPE {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		recs := byPE[pe]
		sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
		for i := 1; i < len(recs); i++ {
			if recs[i].Start < recs[i-1].Finish-tol {
				return fmt.Errorf("runtime: tasks %d and %d overlap on PE %d",
					recs[i-1].Task, recs[i].Task, pe)
			}
		}
	}
	return nil
}
