// Package taskgraph provides the task-graph substrate: directed acyclic
// graphs of tasks with communication edges and a completion deadline,
// the paper's four benchmark graphs (fixed .tg data), static
// criticality (longest path to the end of the graph, the list-scheduling
// priority the paper's ASP starts from), and text/DOT serialization.
//
// A graph is indexed on its first structural read (see Graph): the
// slices Predecessors, Successors and TopoOrder return are read-only
// views into the index, and a mutation drops it for the next read to
// rebuild.
package taskgraph

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
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
//
// The first read of the graph's structure (Predecessors, Successors,
// TopoOrder, Validate and the passes built on them) indexes it: the
// topological order and the predecessor and successor edges, each side
// in one shared array with per-task offsets (compressed sparse row
// form). Every later read is served from that index, and the slices
// those accessors return are read-only views into it. AddTask and
// AddEdge drop the index, and the next read rebuilds it. The first read
// may come from several goroutines at once; mutating a graph while
// another goroutine reads it is not supported.
type Graph struct {
	Name     string
	Deadline float64
	tasks    []Task

	// Build state, held only while the graph is not indexed: the edges
	// in insertion order and, per task, the insertion indices of its
	// outgoing edges (for the duplicate check).
	edges []Edge
	out   [][]int32

	mu  sync.Mutex // serializes building the index
	idx atomic.Pointer[index]
}

// index is the read side of a graph, immutable once built (clones share
// it). Within a task, edges keep the order they were added in, and
// order is Kahn's order with sources seeded by ID, so every pass reads
// edges and tasks in the same order the copying accessors once did.
type index struct {
	succ, pred       []Edge  // edges grouped by From and by To
	succOff, predOff []int32 // task id's edges are succ[succOff[id]:succOff[id+1]]
	// perm[i] is the position in succ of the i-th edge added, which
	// keeps insertion order without a third copy of the edges.
	perm  []int32
	order []int // topological order; shorter than the task count on a cycle
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
	g.unindex()
	g.tasks = append(g.tasks, t)
	g.out = append(g.out, nil)
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
	g.unindex()
	for _, ei := range g.out[e.From] {
		if g.edges[ei].To == e.To {
			return fmt.Errorf("taskgraph: duplicate edge %d->%d", e.From, e.To)
		}
	}
	g.out[e.From] = append(g.out[e.From], int32(len(g.edges)))
	g.edges = append(g.edges, e)
	return nil
}

// unindex restores the build state from the index and drops the index,
// ahead of a mutation.
func (g *Graph) unindex() {
	ix := g.idx.Load()
	if ix == nil {
		return
	}
	g.edges = ix.inserted()
	g.out = make([][]int32, len(g.tasks))
	for i, e := range g.edges {
		g.out[e.From] = append(g.out[e.From], int32(i))
	}
	g.idx.Store(nil)
}

// index returns the graph's index, building it on the first read.
func (g *Graph) index() *index {
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	ix := buildIndex(len(g.tasks), g.edges)
	g.edges, g.out = nil, nil
	g.idx.Store(ix)
	return ix
}

// buildIndex groups the edges by source and by target with a counting
// sort that keeps insertion order within a task, then runs Kahn's
// algorithm over the grouped successors.
func buildIndex(n int, edges []Edge) *index {
	ix := &index{
		succ:    make([]Edge, len(edges)),
		pred:    make([]Edge, len(edges)),
		succOff: make([]int32, n+1),
		predOff: make([]int32, n+1),
		perm:    make([]int32, len(edges)),
	}
	for _, e := range edges {
		ix.succOff[e.From+1]++
		ix.predOff[e.To+1]++
	}
	for id := 0; id < n; id++ {
		ix.succOff[id+1] += ix.succOff[id]
		ix.predOff[id+1] += ix.predOff[id]
	}
	// Scatter with the offsets as cursors; each then sits at the start
	// of the next task, so shifting them up one restores the offsets.
	for i, e := range edges {
		s, p := ix.succOff[e.From], ix.predOff[e.To]
		ix.succ[s], ix.pred[p], ix.perm[i] = e, e, s
		ix.succOff[e.From]++
		ix.predOff[e.To]++
	}
	copy(ix.succOff[1:], ix.succOff[:n])
	copy(ix.predOff[1:], ix.predOff[:n])
	ix.succOff[0], ix.predOff[0] = 0, 0

	// Kahn's algorithm with the order itself as the FIFO queue.
	indeg := make([]int32, n)
	ix.order = make([]int, 0, n)
	for id := range indeg {
		indeg[id] = ix.predOff[id+1] - ix.predOff[id]
		if indeg[id] == 0 {
			ix.order = append(ix.order, id)
		}
	}
	for head := 0; head < len(ix.order); head++ {
		for _, e := range ix.succOf(ix.order[head]) {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ix.order = append(ix.order, e.To)
			}
		}
	}
	return ix
}

func (ix *index) succOf(id int) []Edge {
	lo, hi := ix.succOff[id], ix.succOff[id+1]
	return ix.succ[lo:hi:hi]
}

func (ix *index) predOf(id int) []Edge {
	lo, hi := ix.predOff[id], ix.predOff[id+1]
	return ix.pred[lo:hi:hi]
}

// inserted returns a fresh copy of the edges in insertion order.
func (ix *index) inserted() []Edge {
	out := make([]Edge, len(ix.perm))
	for i, p := range ix.perm {
		out[i] = ix.succ[p]
	}
	return out
}

// NumTasks returns the task count.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.index().succ) }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) Task { return g.tasks[id] }

// Tasks returns a copy of the task list.
func (g *Graph) Tasks() []Task { return slices.Clone(g.tasks) }

// Edges returns a copy of the edge list, in insertion order.
func (g *Graph) Edges() []Edge { return g.index().inserted() }

// Successors returns the edges leaving task id, in insertion order. The
// slice is a read-only view into the graph's index.
func (g *Graph) Successors(id int) []Edge { return g.index().succOf(id) }

// Predecessors returns the edges entering task id, in insertion order.
// The slice is a read-only view into the graph's index.
func (g *Graph) Predecessors(id int) []Edge { return g.index().predOf(id) }

// InDegree returns the number of predecessors of task id.
func (g *Graph) InDegree(id int) int {
	ix := g.index()
	return int(ix.predOff[id+1] - ix.predOff[id])
}

// Sources returns the IDs of tasks with no predecessors.
func (g *Graph) Sources() []int {
	ix := g.index()
	var out []int
	for id := range g.tasks {
		if ix.predOff[id+1] == ix.predOff[id] {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns the IDs of tasks with no successors.
func (g *Graph) Sinks() []int {
	ix := g.index()
	var out []int
	for id := range g.tasks {
		if ix.succOff[id+1] == ix.succOff[id] {
			out = append(out, id)
		}
	}
	return out
}

// TopoOrder returns a topological ordering of the task IDs (Kahn's
// algorithm, sources seeded in ID order), or an error if the graph has
// a cycle. The slice is a read-only view into the graph's index.
func (g *Graph) TopoOrder() ([]int, error) {
	order := g.index().order
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("taskgraph: graph %q contains a cycle", g.Name)
	}
	return order[:len(order):len(order)], nil
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
	_, err := g.TopoOrder()
	return err
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
	ix := g.index()
	sc := make([]float64, len(g.tasks))
	// Walk in reverse topological order: every successor is finalized
	// before its predecessors.
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, e := range ix.succOf(id) {
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
	ix := g.index()
	lv := make([]int, len(g.tasks))
	for _, id := range order {
		for _, e := range ix.predOf(id) {
			if lv[e.From]+1 > lv[id] {
				lv[id] = lv[e.From] + 1
			}
		}
	}
	return lv, nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{%s: %d tasks, %d edges, deadline %g}",
		g.Name, len(g.tasks), g.NumEdges(), g.Deadline)
}

// Clone returns a deep copy of the graph. The copy shares g's immutable
// index until either graph is mutated.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Name, g.Deadline)
	c.tasks = slices.Clone(g.tasks)
	c.idx.Store(g.index())
	return c
}
