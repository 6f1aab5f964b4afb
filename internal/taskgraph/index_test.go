package taskgraph_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"thermalsched/internal/scenario"
	"thermalsched/internal/taskgraph"
)

// refGraph is the graph as it stood before the index: an edge list in
// insertion order plus per-task edge-index lists, with accessors that
// copy on every call and a Kahn pass rerun by every reader. The indexed
// Graph must answer every read exactly as it does.
type refGraph struct {
	tasks      []taskgraph.Task
	edges      []taskgraph.Edge
	succ, pred [][]int
}

func (r *refGraph) addTask(t taskgraph.Task) {
	r.tasks = append(r.tasks, t)
	r.succ = append(r.succ, nil)
	r.pred = append(r.pred, nil)
}

// addEdge records e and reports whether AddEdge must accept it. Only
// the structural rejections are mirrored; callers pass valid data.
func (r *refGraph) addEdge(e taskgraph.Edge) bool {
	if e.From < 0 || e.From >= len(r.tasks) || e.To < 0 || e.To >= len(r.tasks) || e.From == e.To {
		return false
	}
	for _, ei := range r.succ[e.From] {
		if r.edges[ei].To == e.To {
			return false
		}
	}
	r.succ[e.From] = append(r.succ[e.From], len(r.edges))
	r.pred[e.To] = append(r.pred[e.To], len(r.edges))
	r.edges = append(r.edges, e)
	return true
}

func (r *refGraph) clone() *refGraph {
	c := &refGraph{tasks: slices.Clone(r.tasks), edges: slices.Clone(r.edges)}
	for id := range r.tasks {
		c.succ = append(c.succ, slices.Clone(r.succ[id]))
		c.pred = append(c.pred, slices.Clone(r.pred[id]))
	}
	return c
}

func (r *refGraph) successors(id int) []taskgraph.Edge {
	out := make([]taskgraph.Edge, 0, len(r.succ[id]))
	for _, ei := range r.succ[id] {
		out = append(out, r.edges[ei])
	}
	return out
}

func (r *refGraph) predecessors(id int) []taskgraph.Edge {
	out := make([]taskgraph.Edge, 0, len(r.pred[id]))
	for _, ei := range r.pred[id] {
		out = append(out, r.edges[ei])
	}
	return out
}

func (r *refGraph) ends(adj [][]int) []int {
	var out []int
	for id := range r.tasks {
		if len(adj[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// topoOrder is Kahn's algorithm with a separate FIFO queue, or nil on
// a cycle.
func (r *refGraph) topoOrder() []int {
	indeg := make([]int, len(r.tasks))
	queue := make([]int, 0, len(r.tasks))
	for id := range r.tasks {
		indeg[id] = len(r.pred[id])
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	order := make([]int, 0, len(r.tasks))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, ei := range r.succ[id] {
			to := r.edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != len(r.tasks) {
		return nil
	}
	return order
}

func (r *refGraph) levels(order []int) []int {
	lv := make([]int, len(r.tasks))
	for _, id := range order {
		for _, ei := range r.pred[id] {
			if from := r.edges[ei].From; lv[from]+1 > lv[id] {
				lv[id] = lv[from] + 1
			}
		}
	}
	return lv
}

func (r *refGraph) staticCriticality(order []int) []float64 {
	sc := make([]float64, len(r.tasks))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, ei := range r.succ[id] {
			e := r.edges[ei]
			if v := sc[e.To] + scEdge(e); v > best {
				best = v
			}
		}
		sc[id] = best + scTask(r.tasks[id])
	}
	return sc
}

func prob(e taskgraph.Edge) float64 {
	if e.Prob == 0 {
		return 1
	}
	return e.Prob
}

// branchesOK is ValidateProbabilities' branch-sum rule.
func (r *refGraph) branchesOK() bool {
	for id := range r.tasks {
		var sum float64
		conditional := false
		for _, ei := range r.succ[id] {
			sum += prob(r.edges[ei])
			conditional = conditional || r.edges[ei].IsConditional()
		}
		if conditional && sum > 1+1e-9 {
			return false
		}
	}
	return true
}

func (r *refGraph) executionProbabilities(order []int) []float64 {
	probs := make([]float64, len(r.tasks))
	for _, id := range order {
		if len(r.pred[id]) == 0 {
			probs[id] = 1
			continue
		}
		var p float64
		for _, ei := range r.pred[id] {
			p += probs[r.edges[ei].From] * prob(r.edges[ei])
		}
		probs[id] = math.Min(p, 1)
	}
	return probs
}

func scTask(t taskgraph.Task) float64 { return float64(t.Type) + 1.5 }
func scEdge(e taskgraph.Edge) float64 { return e.Data * 0.25 }

// builder adds to a Graph and its reference in lockstep, failing the
// test if they disagree on accepting an addition.
type builder struct {
	t   testing.TB
	g   *taskgraph.Graph
	ref *refGraph
}

func newBuilder(t testing.TB, name string) *builder {
	return &builder{t: t, g: taskgraph.NewGraph(name, 100), ref: &refGraph{}}
}

func (b *builder) task(typ int) {
	b.t.Helper()
	t := taskgraph.Task{ID: b.g.NumTasks(), Name: fmt.Sprintf("t%d", b.g.NumTasks()), Type: typ}
	if err := b.g.AddTask(t); err != nil {
		b.t.Fatal(err)
	}
	b.ref.addTask(t)
}

func (b *builder) edge(e taskgraph.Edge) {
	b.t.Helper()
	err := b.g.AddEdge(e)
	if want := b.ref.addEdge(e); (err == nil) != want {
		b.t.Fatalf("AddEdge(%v) = %v, reference accepts: %v", e, err, want)
	}
}

// copyOf rebuilds g addition by addition, so the copy's first read
// indexes it from scratch.
func copyOf(t testing.TB, g *taskgraph.Graph) *builder {
	t.Helper()
	b := newBuilder(t, g.Name)
	for _, task := range g.Tasks() {
		b.task(task.Type)
	}
	for _, e := range g.Edges() {
		b.edge(e)
	}
	return b
}

// checkIndex compares every structural read of g with the reference.
func checkIndex(t testing.TB, g *taskgraph.Graph, r *refGraph) {
	t.Helper()
	if g.NumTasks() != len(r.tasks) || g.NumEdges() != len(r.edges) {
		t.Fatalf("%d tasks, %d edges; reference has %d, %d", g.NumTasks(), g.NumEdges(), len(r.tasks), len(r.edges))
	}
	if got := g.Tasks(); !slices.Equal(got, r.tasks) {
		t.Fatalf("Tasks() = %v, want %v", got, r.tasks)
	}
	if got := g.Edges(); !slices.Equal(got, r.edges) {
		t.Fatalf("Edges() = %v, want insertion order %v", got, r.edges)
	}
	for id := range r.tasks {
		if got, want := g.Successors(id), r.successors(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("Successors(%d) = %v, want %v", id, got, want)
		}
		if got, want := g.Predecessors(id), r.predecessors(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("Predecessors(%d) = %v, want %v", id, got, want)
		}
		if got, want := g.InDegree(id), len(r.pred[id]); got != want {
			t.Fatalf("InDegree(%d) = %d, want %d", id, got, want)
		}
	}
	if got, want := g.Sources(), r.ends(r.pred); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sources() = %v, want %v", got, want)
	}
	if got, want := g.Sinks(), r.ends(r.succ); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sinks() = %v, want %v", got, want)
	}
	if err := g.ValidateProbabilities(); (err == nil) != r.branchesOK() {
		t.Fatalf("ValidateProbabilities() = %v, reference accepts: %v", err, r.branchesOK())
	}
	order := r.topoOrder()
	got, err := g.TopoOrder()
	if order == nil {
		if err == nil {
			t.Fatalf("TopoOrder() = %v on a cyclic graph", got)
		}
		if err := g.Validate(); err == nil && len(r.tasks) > 0 {
			t.Fatal("Validate accepted a cyclic graph")
		}
		return
	}
	if err != nil || !reflect.DeepEqual(got, order) {
		t.Fatalf("TopoOrder() = %v, %v; want %v", got, err, order)
	}
	if err := g.Validate(); (err == nil) != (len(r.tasks) > 0) {
		t.Fatalf("Validate() = %v with %d tasks", err, len(r.tasks))
	}
	if lv, err := g.Levels(); err != nil || !reflect.DeepEqual(lv, r.levels(order)) {
		t.Fatalf("Levels() = %v, %v; want %v", lv, err, r.levels(order))
	}
	if sc, err := g.StaticCriticality(scTask, scEdge); err != nil || !reflect.DeepEqual(sc, r.staticCriticality(order)) {
		t.Fatalf("StaticCriticality() = %v, %v; want %v", sc, err, r.staticCriticality(order))
	}
	if r.branchesOK() {
		if p, err := g.ExecutionProbabilities(); err != nil || !reflect.DeepEqual(p, r.executionProbabilities(order)) {
			t.Fatalf("ExecutionProbabilities() = %v, %v; want %v", p, err, r.executionProbabilities(order))
		}
	}
}

// indexCorpus is the paper benchmarks and generated scenario graphs of
// both shapes, unconditional and conditional.
func indexCorpus(t *testing.T) map[string]*taskgraph.Graph {
	t.Helper()
	out := make(map[string]*taskgraph.Graph)
	for _, name := range taskgraph.BenchmarkNames() {
		g, err := taskgraph.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	for _, shape := range []string{scenario.ShapeLayered, scenario.ShapeSeriesParallel} {
		for _, branch := range []float64{0, 0.6} {
			s, err := scenario.Generate(scenario.Spec{Seed: 11, Graph: scenario.GraphParams{
				Shape: shape, Tasks: 80, BranchDensity: branch,
			}})
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/branch%g", shape, branch)] = s.Graph
		}
	}
	return out
}

func TestIndexMatchesReference(t *testing.T) {
	for name, g := range indexCorpus(t) {
		t.Run(name, func(t *testing.T) {
			b := copyOf(t, g)
			checkIndex(t, b.g, b.ref)
			// The graph as loaded (indexed when it was validated) reads
			// the same as the one indexed here.
			checkIndex(t, g, b.ref)
		})
	}
}

// A mutation after a read drops the index; the next read rebuilds it,
// and the duplicate check still sees edges added before the read.
func TestIndexMutateAfterRead(t *testing.T) {
	b := newBuilder(t, "grow")
	for i := 0; i < 4; i++ {
		b.task(i % 3)
	}
	b.edge(taskgraph.Edge{From: 0, To: 2, Data: 3})
	b.edge(taskgraph.Edge{From: 0, To: 1, Data: 5, Prob: 0.5})
	checkIndex(t, b.g, b.ref)
	b.edge(taskgraph.Edge{From: 0, To: 3, Data: 1, Prob: 0.5})
	checkIndex(t, b.g, b.ref)
	b.edge(taskgraph.Edge{From: 0, To: 2, Data: 9}) // duplicate of an indexed edge
	b.task(1)
	b.edge(taskgraph.Edge{From: 4, To: 0, Data: 2})
	b.edge(taskgraph.Edge{From: 2, To: 3, Data: 2})
	checkIndex(t, b.g, b.ref)
	b.edge(taskgraph.Edge{From: 3, To: 4, Data: 1}) // closes a cycle
	checkIndex(t, b.g, b.ref)

	// A clone shares the index until it is mutated; mutating it leaves
	// the original as it was.
	c := &builder{t: t, g: b.g.Clone(), ref: b.ref.clone()}
	checkIndex(t, c.g, c.ref)
	c.task(0)
	c.edge(taskgraph.Edge{From: 5, To: 1, Data: 4})
	checkIndex(t, c.g, c.ref)
	checkIndex(t, b.g, b.ref)
}

// The search pool shares one graph across workers, so the first read
// may come from several goroutines at once.
func TestIndexFirstReadConcurrent(t *testing.T) {
	bm, err := taskgraph.Benchmark("Bm4")
	if err != nil {
		t.Fatal(err)
	}
	b := copyOf(t, bm)
	want := b.ref.topoOrder()
	var wg sync.WaitGroup
	orders := make([][]int, 8)
	for i := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				_ = b.g.Predecessors(i)
			}
			orders[i], _ = b.g.TopoOrder()
		}()
	}
	wg.Wait()
	for i, order := range orders {
		if !reflect.DeepEqual(order, want) {
			t.Errorf("goroutine %d read TopoOrder %v, want %v", i, order, want)
		}
	}
	checkIndex(t, b.g, b.ref)
}

func TestIndexedReadsDoNotAllocate(t *testing.T) {
	if taskgraph.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	g, err := taskgraph.Benchmark("Bm2")
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumTasks()
	for name, read := range map[string]func(){
		"Predecessors": func() {
			for id := 0; id < n; id++ {
				_ = g.Predecessors(id)
			}
		},
		"Successors": func() {
			for id := 0; id < n; id++ {
				_ = g.Successors(id)
			}
		},
		"InDegree": func() {
			for id := 0; id < n; id++ {
				_ = g.InDegree(id)
			}
		},
		"TopoOrder": func() { _, _ = g.TopoOrder() },
		"Validate":  func() { _ = g.Validate() },
	} {
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Errorf("%s allocates %.0f times on an indexed graph, want 0", name, allocs)
		}
	}
}

// FuzzGraphIndex drives random AddTask/AddEdge/read sequences and
// checks every read against the reference. Each op is three bytes: a
// kind (task, edge, read) and two operands.
func FuzzGraphIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 1, 2, 0, 0, 0, 0, 0, 1, 1, 2, 2, 0, 0})
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 2, 2, 2, 0, 0, 1, 2, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 5, 1, 1, 6, 1, 0, 0, 2, 0, 0, 1, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := newBuilder(t, "fuzz")
		for i := 0; i+2 < len(ops); i += 3 {
			x, y := int(ops[i+1]), int(ops[i+2])
			switch ops[i] % 3 {
			case 0:
				b.task(x % 4)
			case 1:
				n := b.g.NumTasks() + 1 // one past the end exercises the missing-task check
				e := taskgraph.Edge{From: x % n, To: y % n, Data: float64(x ^ y)}
				if y%4 == 0 {
					e.Prob = float64(x%4+1) / 8
				}
				b.edge(e)
			default:
				checkIndex(t, b.g, b.ref)
			}
		}
		checkIndex(t, b.g, b.ref)
	})
}
