// Package sim is a discrete-event executor for schedules produced by the
// ASP: it replays a schedule with *actual* execution times (a seeded
// fraction of each task's WCET), preserving the task→PE mapping and each
// PE's dispatch order, and reports the realized timing and energy.
//
// The paper evaluates worst-case schedules only; this executor is the
// run-time companion that shows WCET-based guarantees hold under
// variable actual execution (makespan and energy can only shrink when
// execution times shrink, given a fixed mapping and dispatch order).
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"thermalsched/internal/sched"
)

// Options controls the executor.
type Options struct {
	// MinFactor is the lower bound of the per-task execution-time factor:
	// actual duration = WCET × uniform[MinFactor, 1]. 1 replays the
	// worst case exactly.
	MinFactor float64
	// Seed drives the per-task factors and the branch realization.
	Seed int64
	// Conditional enables conditional-task-graph execution: each edge
	// fires with its annotated probability (given its source executed);
	// tasks none of whose incoming edges fired are skipped and their
	// reserved PE slots are simply not used. Sources always execute.
	Conditional bool
}

// Validate reports the first invalid option.
func (o Options) Validate() error {
	if o.MinFactor <= 0 || o.MinFactor > 1 {
		return fmt.Errorf("sim: MinFactor %g out of (0, 1]", o.MinFactor)
	}
	return nil
}

// TaskRecord is the realized execution of one task.
type TaskRecord struct {
	Task   int
	PE     int
	Start  float64
	Finish float64
	Power  float64 // actual power draw while executing, W
	// Skipped marks a task whose branch was not taken in a conditional
	// run; its timing fields are zero.
	Skipped bool
}

// Result is the outcome of one simulated execution.
type Result struct {
	Schedule *sched.Schedule
	Records  []TaskRecord // indexed by task ID
	Makespan float64
	Energy   float64
	Executed int // number of tasks that actually ran

	real *Realization // the draw this execution ran under, for Validate
}

// Realization is the seeded random draw one simulated execution runs
// under: per-task actual durations and, for conditional graphs, the
// realized branch decisions. Drawing it separately from replaying it
// lets the open-loop executor (Execute) and the closed-loop runtime
// co-simulator (internal/runtime) share one deterministic-seed
// contract: the same schedule, options and seed realize identical
// durations and branches in both, so open- and closed-loop results of
// the same replica are directly comparable.
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

// DrawFactors draws n execution-time factors, uniform on
// [minFactor, 1], consuming exactly one rng variate per factor in index
// order. This is the single seeded duration-draw contract shared by the
// batch realizer (Realize) and the online dispatcher (internal/stream):
// both draw factor i for task/job i from the i-th variate of a source
// seeded with their Seed verbatim, so the two subsystems realize
// identical factor sequences from identical seeds.
func DrawFactors(rng *rand.Rand, n int, minFactor float64) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = minFactor + (1-minFactor)*rng.Float64()
	}
	return f
}

// Realize draws the seeded execution-time factors and branch decisions
// for one run of the schedule.
func Realize(s *sched.Schedule, opt Options) (*Realization, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := s.Graph.NumTasks()

	// Actual durations: WCET × the shared factor draw, in task-ID order.
	factors := DrawFactors(rng, n, opt.MinFactor)
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
	if opt.Conditional {
		if err := s.Graph.ValidateProbabilities(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		order, err := s.Graph.TopoOrder()
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		for _, id := range order {
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
// start time. Both the open-loop executor and the closed-loop runtime
// dispatch in exactly this order, so throttling can stretch tasks but
// never reorder them.
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

// Execute replays the schedule under the options. The task→PE mapping
// and the per-PE dispatch order are taken from the schedule; start times
// are recomputed event-style from actual durations and communication
// delays.
func Execute(s *sched.Schedule, opt Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	real, err := Realize(s, opt)
	if err != nil {
		return nil, err
	}
	n := s.Graph.NumTasks()
	actual, executes, firedEdge := real.Actual, real.Executes, real.fired

	// Per-PE dispatch queues in static start order.
	queues := DispatchQueues(s)

	records := make([]TaskRecord, n)
	done := make([]bool, n)
	next := make([]int, len(queues)) // per-PE queue cursor
	peFree := make([]float64, len(queues))
	completed := 0
	for completed < n {
		progressed := false
		for pe := range queues {
			for next[pe] < len(queues[pe]) {
				id := queues[pe][next[pe]]
				if !executes[id] {
					records[id] = TaskRecord{Task: id, PE: pe, Skipped: true}
					done[id] = true
					next[pe]++
					completed++
					progressed = true
					continue
				}
				ready, ok := readyTime(s, records, done, firedEdge, id, pe)
				if !ok {
					break // predecessors pending; revisit after progress
				}
				start := ready
				if peFree[pe] > start {
					start = peFree[pe]
				}
				finish := start + actual[id]
				records[id] = TaskRecord{
					Task: id, PE: pe, Start: start, Finish: finish,
					Power: s.Assignments[id].Power,
				}
				done[id] = true
				peFree[pe] = finish
				next[pe]++
				completed++
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("sim: dispatch deadlock with %d/%d tasks executed", completed, n)
		}
	}

	res := &Result{Schedule: s, Records: records, real: real}
	for _, r := range records {
		if r.Skipped {
			continue
		}
		res.Executed++
		if r.Finish > res.Makespan {
			res.Makespan = r.Finish
		}
		res.Energy += (r.Finish - r.Start) * r.Power
	}
	return res, nil
}

// readyTime computes when task id's inputs are available on PE pe, or
// ok=false if a predecessor has not completed (or been skipped) yet.
// Only fired edges carry data; skipped predecessors impose no delay.
func readyTime(s *sched.Schedule, records []TaskRecord, done []bool, fired map[[2]int]bool, id, pe int) (float64, bool) {
	t := 0.0
	for _, e := range s.Graph.Predecessors(id) {
		if !done[e.From] {
			return 0, false
		}
		if !fired[[2]int{e.From, e.To}] || records[e.From].Skipped {
			continue
		}
		r := records[e.From].Finish
		if records[e.From].PE != pe {
			r += e.Data * s.Arch.BusTimePerUnit
		}
		if r > t {
			t = r
		}
	}
	return t, true
}

// Validate checks the realized execution against its schedule and
// realization (CheckExecution).
func (r *Result) Validate() error {
	return CheckExecution(r.Schedule, r.Records, r.real)
}

// CheckExecution reports the first way records break schedule s under
// the realization real: a task off its record or its assigned PE, a
// negative duration, two executed tasks overlapping on a PE, or a fired
// edge (with bus delay across PEs) not honoured. An edge real did not
// fire carried no data, so it constrains nothing even when both its
// ends executed, just as dispatch (readyTime) ignores it. A nil real
// treats every edge as fired. Durations are not compared with the
// schedule: realized factors and closed-loop throttling change them.
func CheckExecution(s *sched.Schedule, records []TaskRecord, real *Realization) error {
	const tol = 1e-9
	n := s.Graph.NumTasks()
	if len(records) != n {
		return fmt.Errorf("sim: %d records for %d tasks", len(records), n)
	}
	for id, rec := range records {
		if rec.Task != id {
			return fmt.Errorf("sim: record %d holds task %d", id, rec.Task)
		}
		if rec.PE != s.Assignments[id].PE {
			return fmt.Errorf("sim: task %d migrated from its assigned PE", id)
		}
		if rec.Skipped {
			continue
		}
		if rec.Finish < rec.Start-tol {
			return fmt.Errorf("sim: task %d has negative duration", id)
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
			return fmt.Errorf("sim: edge %d->%d violated", e.From, e.To)
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
				return fmt.Errorf("sim: tasks %d and %d overlap on PE %d",
					recs[i-1].Task, recs[i].Task, pe)
			}
		}
	}
	return nil
}
