// Package taskgraph provides the task-graph substrate: directed acyclic
// graphs of tasks with communication edges and a completion deadline,
// the paper's four benchmark graphs (fixed .tg data), static
// criticality (longest path to the end of the graph, the list-scheduling
// priority the paper's ASP starts from), and text/DOT serialization.
package taskgraph

import (
	"fmt"
	"math"
)

// Task is one node of a task graph. Type selects a row of the technology
// library (which task types run how fast / how hot on which PE types).
type Task struct {
	ID   int
	Name string
	Type int
}

// Edge is a data dependency: To may start only after From completes and
// its Data units have been transferred (on-chip transfers between
// distinct PEs take time proportional to Data). Prob is the conditional
// task-graph annotation: the probability that control flows down this
// edge given From executed; the zero value means 1 (unconditional). See
// conditional.go.
type Edge struct {
	From, To int
	Data     float64
	Prob     float64
}

// Graph is a task graph with a deadline. Construct with NewGraph and
// AddTask/AddEdge, read one with ReadGraph, or load a paper benchmark
// with Benchmark.
type Graph struct {
	Name     string
	Deadline float64
	tasks    []Task
	edges    []Edge
	succ     [][]int // successor edge indices per task
	pred     [][]int // predecessor edge indices per task
}

// NewGraph returns an empty graph with the given name and deadline.
func NewGraph(name string, deadline float64) *Graph {
	return &Graph{Name: name, Deadline: deadline}
}

// AddTask appends a task; IDs must be assigned densely in order
// (0, 1, 2, ...), which keeps every per-task lookup a slice index.
func (g *Graph) AddTask(t Task) error {
	if t.ID != len(g.tasks) {
		return fmt.Errorf("taskgraph: task ID %d out of order, want %d", t.ID, len(g.tasks))
	}
	if t.Name == "" {
		return fmt.Errorf("taskgraph: task %d has empty name", t.ID)
	}
	if t.Type < 0 {
		return fmt.Errorf("taskgraph: task %d has negative type %d", t.ID, t.Type)
	}
	g.tasks = append(g.tasks, t)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return nil
}

// AddEdge appends a dependency edge. Both endpoints must exist, self
// loops and duplicate edges are rejected; cycle detection happens in
// Validate (cheaper once, after construction).
func (g *Graph) AddEdge(e Edge) error {
	if e.From < 0 || e.From >= len(g.tasks) || e.To < 0 || e.To >= len(g.tasks) {
		return fmt.Errorf("taskgraph: edge %d->%d references missing task", e.From, e.To)
	}
	if e.From == e.To {
		return fmt.Errorf("taskgraph: self loop on task %d", e.From)
	}
	if e.Data < 0 || math.IsNaN(e.Data) {
		return fmt.Errorf("taskgraph: edge %d->%d has invalid data %g", e.From, e.To, e.Data)
	}
	if e.Prob < 0 || e.Prob > 1 || math.IsNaN(e.Prob) {
		return fmt.Errorf("taskgraph: edge %d->%d has invalid probability %g", e.From, e.To, e.Prob)
	}
	for _, ei := range g.succ[e.From] {
		if g.edges[ei].To == e.To {
			return fmt.Errorf("taskgraph: duplicate edge %d->%d", e.From, e.To)
		}
	}
	idx := len(g.edges)
	g.edges = append(g.edges, e)
	g.succ[e.From] = append(g.succ[e.From], idx)
	g.pred[e.To] = append(g.pred[e.To], idx)
	return nil
}

// NumTasks returns the task count.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) Task { return g.tasks[id] }

// Tasks returns a copy of the task list.
func (g *Graph) Tasks() []Task {
	out := make([]Task, len(g.tasks))
	copy(out, g.tasks)
	return out
}

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Successors returns the edges leaving task id.
func (g *Graph) Successors(id int) []Edge {
	out := make([]Edge, 0, len(g.succ[id]))
	for _, ei := range g.succ[id] {
		out = append(out, g.edges[ei])
	}
	return out
}

// Predecessors returns the edges entering task id.
func (g *Graph) Predecessors(id int) []Edge {
	out := make([]Edge, 0, len(g.pred[id]))
	for _, ei := range g.pred[id] {
		out = append(out, g.edges[ei])
	}
	return out
}

// InDegree returns the number of predecessors of task id.
func (g *Graph) InDegree(id int) int { return len(g.pred[id]) }

// Sources returns the IDs of tasks with no predecessors.
func (g *Graph) Sources() []int {
	var out []int
	for id := range g.tasks {
		if len(g.pred[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns the IDs of tasks with no successors.
func (g *Graph) Sinks() []int {
	var out []int
	for id := range g.tasks {
		if len(g.succ[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// TopoOrder returns a topological ordering of the task IDs (Kahn's
// algorithm), or an error if the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	indeg := make([]int, len(g.tasks))
	for id := range g.tasks {
		indeg[id] = len(g.pred[id])
	}
	queue := make([]int, 0, len(g.tasks))
	for id := range g.tasks {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	order := make([]int, 0, len(g.tasks))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, ei := range g.succ[id] {
			to := g.edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("taskgraph: graph %q contains a cycle", g.Name)
	}
	return order, nil
}

// Validate checks structural sanity: non-empty, positive deadline,
// acyclic.
func (g *Graph) Validate() error {
	if len(g.tasks) == 0 {
		return fmt.Errorf("taskgraph: graph %q has no tasks", g.Name)
	}
	if !(g.Deadline > 0) {
		return fmt.Errorf("taskgraph: graph %q has non-positive deadline %g", g.Name, g.Deadline)
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// StaticCriticality computes the paper's SC value for every task: the
// longest path from the task to any sink, where each task contributes
// weight(task) and each traversed edge contributes edgeWeight(edge).
// Pass the mean WCET as weight (as list schedulers conventionally do)
// and zero edge weight to match the paper's definition.
func (g *Graph) StaticCriticality(weight func(Task) float64, edgeWeight func(Edge) float64) ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	sc := make([]float64, len(g.tasks))
	// Walk in reverse topological order: every successor is finalized
	// before its predecessors.
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, ei := range g.succ[id] {
			e := g.edges[ei]
			v := sc[e.To]
			if edgeWeight != nil {
				v += edgeWeight(e)
			}
			if v > best {
				best = v
			}
		}
		sc[id] = best + weight(g.tasks[id])
	}
	return sc, nil
}

// CriticalPathLength returns the maximum StaticCriticality value — the
// schedule length lower bound on infinitely many PEs.
func (g *Graph) CriticalPathLength(weight func(Task) float64, edgeWeight func(Edge) float64) (float64, error) {
	sc, err := g.StaticCriticality(weight, edgeWeight)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, v := range sc {
		if v > best {
			best = v
		}
	}
	return best, nil
}

// Levels assigns each task its depth (longest hop count from a source),
// useful for reporting and layout.
func (g *Graph) Levels() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	lv := make([]int, len(g.tasks))
	for _, id := range order {
		for _, ei := range g.pred[id] {
			from := g.edges[ei].From
			if lv[from]+1 > lv[id] {
				lv[id] = lv[from] + 1
			}
		}
	}
	return lv, nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{%s: %d tasks, %d edges, deadline %g}",
		g.Name, len(g.tasks), len(g.edges), g.Deadline)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Name, g.Deadline)
	for _, t := range g.tasks {
		if err := c.AddTask(t); err != nil {
			panic("taskgraph: Clone: " + err.Error())
		}
	}
	for _, e := range g.edges {
		if err := c.AddEdge(e); err != nil {
			panic("taskgraph: Clone: " + err.Error())
		}
	}
	return c
}
