package taskgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateExactCounts(t *testing.T) {
	p := GenParams{Name: "g", Tasks: 20, Edges: 25, Deadline: 500, Types: 4, Sources: 2, MaxData: 10, Seed: 42}
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 20 || g.NumEdges() != 25 {
		t.Errorf("size = %d/%d, want 20/25", g.NumTasks(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Sources()); got != 2 {
		t.Errorf("sources = %d, want 2", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := GenParams{Name: "g", Tasks: 15, Edges: 18, Deadline: 100, Types: 3, Sources: 1, MaxData: 5, Seed: 7}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatal("edge counts differ")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
	for i := range a.Tasks() {
		if a.Task(i) != b.Task(i) {
			t.Fatalf("task %d differs", i)
		}
	}
}

func TestGenerateSeedChangesGraph(t *testing.T) {
	p := GenParams{Name: "g", Tasks: 15, Edges: 18, Deadline: 100, Types: 3, Sources: 1, MaxData: 5, Seed: 7}
	a, _ := Generate(p)
	p.Seed = 8
	b, _ := Generate(p)
	same := true
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical edge lists")
	}
}

func TestGenerateParamValidation(t *testing.T) {
	base := GenParams{Name: "g", Tasks: 10, Edges: 12, Deadline: 100, Types: 2, Sources: 1, MaxData: 5, Seed: 1}
	mutations := []func(*GenParams){
		func(p *GenParams) { p.Tasks = 0 },
		func(p *GenParams) { p.Types = 0 },
		func(p *GenParams) { p.Sources = 0 },
		func(p *GenParams) { p.Sources = 11 },
		func(p *GenParams) { p.Deadline = 0 },
		func(p *GenParams) { p.MaxData = 0.5 },
		func(p *GenParams) { p.Edges = 3 },  // below Tasks - Sources
		func(p *GenParams) { p.Edges = 99 }, // above n(n-1)/2
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, p)
		}
	}
}

func TestGenerateSingleTask(t *testing.T) {
	g, err := Generate(GenParams{Name: "one", Tasks: 1, Edges: 0, Deadline: 10, Types: 1, Sources: 1, MaxData: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 1 || g.NumEdges() != 0 {
		t.Error("single-task graph wrong")
	}
}

// Property: generated graphs are valid DAGs with exact counts, all types
// in range, and every non-source task reachable (in-degree >= 1).
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		sources := 1 + rng.Intn(min(3, n))
		minE := n - sources
		maxE := n * (n - 1) / 2
		e := minE + rng.Intn(maxE-minE+1)
		g, err := Generate(GenParams{
			Name: "p", Tasks: n, Edges: e, Deadline: 100,
			Types: 1 + rng.Intn(8), Sources: sources, MaxData: 10, Seed: seed,
		})
		if err != nil {
			return false
		}
		if g.NumTasks() != n || g.NumEdges() != e || g.Validate() != nil {
			return false
		}
		nSources := 0
		for id := 0; id < n; id++ {
			if g.InDegree(id) == 0 {
				nSources++
			}
		}
		return nSources <= sources
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBenchmarksMatchPaperSpecs(t *testing.T) {
	want := []struct {
		name     string
		tasks    int
		edges    int
		deadline float64
	}{
		{"Bm1", 19, 19, 790},
		{"Bm2", 35, 40, 1500},
		{"Bm3", 39, 43, 1650},
		{"Bm4", 51, 60, 2000},
	}
	graphs, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 4 {
		t.Fatalf("got %d benchmarks", len(graphs))
	}
	for i, w := range want {
		g := graphs[i]
		if g.Name != w.name || g.NumTasks() != w.tasks || g.NumEdges() != w.edges || g.Deadline != w.deadline {
			t.Errorf("%s = %d/%d/%g, want %d/%d/%g",
				g.Name, g.NumTasks(), g.NumEdges(), g.Deadline, w.tasks, w.edges, w.deadline)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.name, err)
		}
		// All task types must fit the shared type universe.
		for _, task := range g.Tasks() {
			if task.Type < 0 || task.Type >= NumTaskTypes {
				t.Errorf("%s task %d type %d outside [0,%d)", w.name, task.ID, task.Type, NumTaskTypes)
			}
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	g, err := Benchmark("Bm2")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 35 {
		t.Errorf("Bm2 tasks = %d", g.NumTasks())
	}
	if _, err := Benchmark("Bm9"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	names := BenchmarkNames()
	if len(names) != 4 || names[0] != "Bm1" {
		t.Errorf("BenchmarkNames = %v", names)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Seed zero is a valid seed and must be honored verbatim — the
// generator-level counterpart of TestCoSynthesisSeedZeroContract:
// no code path may rewrite an explicit zero to a "default" seed.
// (Audited for PR 4: Generate passes p.Seed straight to rand.NewSource,
// and cmd/taskgen passes its -seed flag straight to Generate.)
func TestGenerateSeedZeroHonored(t *testing.T) {
	p := GenParams{Name: "g", Tasks: 15, Edges: 18, Deadline: 100, Types: 3, Sources: 1, MaxData: 5, Seed: 0}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(a, b) {
		t.Error("seed 0 is not deterministic")
	}
	p.Seed = 1
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if sameGraph(a, c) {
		t.Error("seed 0 generated the same graph as seed 1 (seed rewritten?)")
	}
}

// sameGraph compares two graphs structurally (tasks, edges, deadline).
func sameGraph(a, b *Graph) bool {
	if a.NumTasks() != b.NumTasks() || a.NumEdges() != b.NumEdges() || a.Deadline != b.Deadline {
		return false
	}
	for i, ta := range a.Tasks() {
		if ta != b.Task(i) {
			return false
		}
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}
