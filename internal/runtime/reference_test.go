package runtime

import (
	"fmt"

	"thermalsched/internal/sched"
)

// openLoopResult is the outcome of the reference executor.
type openLoopResult struct {
	Records  []TaskRecord // indexed by task ID
	Makespan float64
	Energy   float64
	Executed int // number of tasks that actually ran
}

// openLoopExecute is the open-loop reference executor Simulate must
// equal with no supervisor: a pure event-driven replay that takes the
// task→PE mapping and per-PE dispatch order from the schedule and
// recomputes start times from the realized durations and communication
// delays, with no thermal stepping at all. It keeps its own copy of the
// ready rule (readyTime) so the comparison checks Simulate's readyAt
// against an independent statement of the rule.
func openLoopExecute(s *sched.Schedule, cfg Config) (*openLoopResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	real, err := Realize(s, cfg)
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
			return nil, fmt.Errorf("reference: dispatch deadlock with %d/%d tasks executed", completed, n)
		}
	}

	res := &openLoopResult{Records: records}
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
