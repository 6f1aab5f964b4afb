package taskgraph

import (
	"math"
	"strings"
	"testing"
)

// diamond builds the four-task diamond t0 -> {t1, t2} -> t3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph("diamond", 100)
	for i := 0; i < 4; i++ {
		if err := g.AddTask(Task{ID: i, Name: "t" + string(rune('0'+i)), Type: i % 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{
		{From: 0, To: 1, Data: 5},
		{From: 0, To: 2, Data: 3},
		{From: 1, To: 3, Data: 2},
		{From: 2, To: 3, Data: 4},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddTaskValidation(t *testing.T) {
	g := NewGraph("g", 10)
	if err := g.AddTask(Task{ID: 1, Name: "x", Type: 0}); err == nil {
		t.Error("out-of-order ID accepted")
	}
	if err := g.AddTask(Task{ID: 0, Name: "", Type: 0}); err == nil {
		t.Error("empty name accepted")
	}
	if err := g.AddTask(Task{ID: 0, Name: "x", Type: -1}); err == nil {
		t.Error("negative type accepted")
	}
	if err := g.AddTask(Task{ID: 0, Name: "x", Type: 0}); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph("g", 10)
	for i := 0; i < 3; i++ {
		if err := g.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(Edge{From: 0, To: 5, Data: 1}); err == nil {
		t.Error("edge to missing task accepted")
	}
	if err := g.AddEdge(Edge{From: 1, To: 1, Data: 1}); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(Edge{From: 0, To: 1, Data: -1}); err == nil {
		t.Error("negative data accepted")
	}
	if err := g.AddEdge(Edge{From: 0, To: 1, Data: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(Edge{From: 0, To: 1, Data: 2}); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestDegreesAndNeighbours(t *testing.T) {
	g := diamond(t)
	if g.NumTasks() != 4 || g.NumEdges() != 4 {
		t.Fatalf("size = %d/%d", g.NumTasks(), g.NumEdges())
	}
	if len(g.Successors(0)) != 2 || g.InDegree(0) != 0 {
		t.Error("t0 degrees wrong")
	}
	if g.InDegree(3) != 2 || len(g.Successors(3)) != 0 {
		t.Error("t3 degrees wrong")
	}
	succ := g.Successors(0)
	if len(succ) != 2 || succ[0].To != 1 || succ[1].To != 2 {
		t.Errorf("Successors(0) = %v", succ)
	}
	pred := g.Predecessors(3)
	if len(pred) != 2 {
		t.Errorf("Predecessors(3) = %v", pred)
	}
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Sinks = %v", got)
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topo order", e.From, e.To)
		}
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	g := NewGraph("cyc", 10)
	for i := 0; i < 3; i++ {
		if err := g.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge := func(e Edge) {
		t.Helper()
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(Edge{From: 0, To: 1, Data: 1})
	mustEdge(Edge{From: 1, To: 2, Data: 1})
	mustEdge(Edge{From: 2, To: 0, Data: 1})
	if err := g.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestValidateOtherErrors(t *testing.T) {
	if err := NewGraph("empty", 10).Validate(); err == nil {
		t.Error("empty graph accepted")
	}
	g := NewGraph("nodl", 0)
	if err := g.AddTask(Task{ID: 0, Name: "t", Type: 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("zero deadline accepted")
	}
}

func TestStaticCriticality(t *testing.T) {
	g := diamond(t)
	// Unit weights, zero edge weight: SC(t3)=1, SC(t1)=SC(t2)=2, SC(t0)=3.
	sc, err := g.StaticCriticality(func(Task) float64 { return 1 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 2, 1}
	for i, w := range want {
		if math.Abs(sc[i]-w) > 1e-12 {
			t.Errorf("SC[%d] = %v, want %v", i, sc[i], w)
		}
	}
}

func TestStaticCriticalityWithEdgeWeights(t *testing.T) {
	g := diamond(t)
	// Weight 1 per task plus the edge data as path cost:
	// SC(t3)=1; SC(t1)=1+2+1=4; SC(t2)=1+4+1=6; SC(t0)=1+max(5+4, 3+6)=10.
	sc, err := g.StaticCriticality(
		func(Task) float64 { return 1 },
		func(e Edge) float64 { return e.Data },
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 4, 6, 1}
	for i, w := range want {
		if math.Abs(sc[i]-w) > 1e-12 {
			t.Errorf("SC[%d] = %v, want %v", i, sc[i], w)
		}
	}
	cp, err := g.CriticalPathLength(func(Task) float64 { return 1 }, func(e Edge) float64 { return e.Data })
	if err != nil {
		t.Fatal(err)
	}
	if cp != 10 {
		t.Errorf("critical path = %v, want 10", cp)
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2}
	for i, w := range want {
		if lv[i] != w {
			t.Errorf("level[%d] = %d, want %d", i, lv[i], w)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	if err := c.AddTask(Task{ID: 4, Name: "t4", Type: 0}); err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 4 || c.NumTasks() != 5 {
		t.Error("Clone not independent")
	}
}

func TestStringer(t *testing.T) {
	if s := diamond(t).String(); !strings.Contains(s, "4 tasks") {
		t.Errorf("String = %q", s)
	}
}
