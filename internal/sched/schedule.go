package sched

import (
	"fmt"
	"sort"
	"strings"

	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// Assignment records where and when one task executes.
type Assignment struct {
	Task   int
	PE     int // index into the architecture's PE list
	Start  float64
	Finish float64
	Power  float64 // WCPC while executing, W
}

// Energy returns the worst-case energy of the assignment.
func (a Assignment) Energy() float64 { return (a.Finish - a.Start) * a.Power }

// Schedule is a complete task mapping and timing produced by the ASP.
type Schedule struct {
	Graph       *taskgraph.Graph
	Arch        Architecture
	Lib         *techlib.Library
	Assignments []Assignment // indexed by task ID
	Makespan    float64
}

// MeetsDeadline reports whether the makespan fits the graph's deadline.
func (s *Schedule) MeetsDeadline() bool { return s.Makespan <= s.Graph.Deadline }

// Assignment returns the assignment of the given task.
func (s *Schedule) Assignment(task int) Assignment { return s.Assignments[task] }

// TotalEnergy returns the summed worst-case energy of all assignments.
func (s *Schedule) TotalEnergy() float64 {
	var sum float64
	for _, a := range s.Assignments {
		sum += a.Energy()
	}
	return sum
}

// PEEnergy returns per-PE energy, indexed like Arch.PEs.
func (s *Schedule) PEEnergy() []float64 {
	out := make([]float64, len(s.Arch.PEs))
	for _, a := range s.Assignments {
		out[a.PE] += a.Energy()
	}
	return out
}

// PEAveragePower returns each PE's energy averaged over the given time
// horizon (use the graph deadline for the paper's "total power" metric,
// or the makespan for utilization-normalized power). The result is the
// power vector handed to the thermal model.
func (s *Schedule) PEAveragePower(horizon float64) ([]float64, error) {
	if !(horizon > 0) {
		return nil, fmt.Errorf("sched: power horizon must be positive, got %g", horizon)
	}
	e := s.PEEnergy()
	for i := range e {
		e[i] /= horizon
	}
	return e, nil
}

// TotalPower returns total energy divided by the deadline — the
// "Total Pow." column of the paper's tables.
func (s *Schedule) TotalPower() float64 {
	return s.TotalEnergy() / s.Graph.Deadline
}

// Validate checks that the schedule is structurally sound:
// every task assigned exactly once to an in-range PE, task timings
// consistent with the library WCETs, no two tasks overlapping on one PE,
// and every precedence edge respected including bus delay.
func (s *Schedule) Validate() error {
	n := s.Graph.NumTasks()
	if len(s.Assignments) != n {
		return fmt.Errorf("sched: %d assignments for %d tasks", len(s.Assignments), n)
	}
	const tol = 1e-9
	for id := 0; id < n; id++ {
		a := s.Assignments[id]
		if a.Task != id {
			return fmt.Errorf("sched: assignment %d records task %d", id, a.Task)
		}
		if a.PE < 0 || a.PE >= len(s.Arch.PEs) {
			return fmt.Errorf("sched: task %d assigned to missing PE %d", id, a.PE)
		}
		if a.Start < -tol || a.Finish < a.Start-tol {
			return fmt.Errorf("sched: task %d has invalid interval [%g, %g]", id, a.Start, a.Finish)
		}
		e, ok := s.Lib.Lookup(s.Arch.PEs[a.PE].Type, s.Graph.Task(id).Type)
		if !ok {
			return fmt.Errorf("sched: task %d type %d not runnable on PE %q",
				id, s.Graph.Task(id).Type, s.Arch.PEs[a.PE].Name)
		}
		if d := a.Finish - a.Start; d < e.WCET-tol || d > e.WCET+tol {
			return fmt.Errorf("sched: task %d duration %g differs from WCET %g", id, d, e.WCET)
		}
		if a.Finish > s.Makespan+tol {
			return fmt.Errorf("sched: task %d finishes at %g after makespan %g", id, a.Finish, s.Makespan)
		}
	}
	// Precedence with communication delay.
	for _, edge := range s.Graph.Edges() {
		from, to := s.Assignments[edge.From], s.Assignments[edge.To]
		ready := from.Finish
		if from.PE != to.PE {
			ready += edge.Data * s.Arch.BusTimePerUnit
		}
		if to.Start < ready-tol {
			return fmt.Errorf("sched: edge %d->%d violated: start %g before ready %g",
				edge.From, edge.To, to.Start, ready)
		}
	}
	// No overlap per PE.
	byPE := make([][]Assignment, len(s.Arch.PEs))
	for _, a := range s.Assignments {
		byPE[a.PE] = append(byPE[a.PE], a)
	}
	for pe, as := range byPE {
		sort.Slice(as, func(i, j int) bool { return as[i].Start < as[j].Start })
		for i := 1; i < len(as); i++ {
			if as[i].Start < as[i-1].Finish-tol {
				return fmt.Errorf("sched: tasks %d and %d overlap on PE %q",
					as[i-1].Task, as[i].Task, s.Arch.PEs[pe].Name)
			}
		}
	}
	return nil
}

// Gantt renders a per-PE timeline for human inspection.
func (s *Schedule) Gantt() string {
	byPE := make([][]Assignment, len(s.Arch.PEs))
	for _, a := range s.Assignments {
		byPE[a.PE] = append(byPE[a.PE], a)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %q on %q: makespan %.1f (deadline %.1f)\n",
		s.Graph.Name, s.Arch.Name, s.Makespan, s.Graph.Deadline)
	for pe, as := range byPE {
		sort.Slice(as, func(i, j int) bool { return as[i].Start < as[j].Start })
		fmt.Fprintf(&b, "  %-8s", s.Arch.PEs[pe].Name)
		for _, a := range as {
			fmt.Fprintf(&b, " %s[%.0f-%.0f]", s.Graph.Task(a.Task).Name, a.Start, a.Finish)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
