package taskgraph

import (
	"bytes"
	"math"
	"testing"
)

// branchGraph builds a CTG: t0 branches to t1 (p=0.7) or t2 (p=0.3),
// both joining at t3; t4 hangs unconditionally off t1.
//
//	    t0
//	0.7/  \0.3
//	  t1   t2
//	 /  \  /
//	t4   t3
func branchGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("ctg", 100)
	for i := 0; i < 5; i++ {
		if err := b.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{
		{From: 0, To: 1, Data: 1, Prob: 0.7},
		{From: 0, To: 2, Data: 1, Prob: 0.3},
		{From: 1, To: 3, Data: 1},
		{From: 2, To: 3, Data: 1},
		{From: 1, To: 4, Data: 1},
	} {
		if err := b.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgeProbabilitySemantics(t *testing.T) {
	if (Edge{}).IsConditional() {
		t.Error("zero-value edge should be unconditional")
	}
	if (Edge{Prob: 1}).IsConditional() {
		t.Error("Prob 1 should be unconditional")
	}
	if !(Edge{Prob: 0.5}).IsConditional() {
		t.Error("Prob 0.5 should be conditional")
	}
}

func TestAddEdgeRejectsBadProb(t *testing.T) {
	b := NewBuilder("g", 10)
	for i := 0; i < 2; i++ {
		if err := b.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if err := b.AddEdge(Edge{From: 0, To: 1, Data: 1, Prob: p}); err == nil {
			t.Errorf("probability %v accepted", p)
		}
	}
}

func TestValidateProbabilities(t *testing.T) {
	g := branchGraph(t)
	if err := g.ValidateProbabilities(); err != nil {
		t.Errorf("valid CTG rejected: %v", err)
	}
	// Branch probabilities summing past 1 must be rejected.
	b := NewBuilder("bad", 100)
	for i := 0; i < 3; i++ {
		if err := b.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(Edge{From: 0, To: 1, Data: 1, Prob: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(Edge{From: 0, To: 2, Data: 1, Prob: 0.8}); err != nil {
		t.Fatal(err)
	}
	bad, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.ValidateProbabilities(); err == nil {
		t.Error("branch probabilities summing to 1.6 accepted")
	}
}

// hasConditionalEdges reports whether any edge of g is conditional.
func hasConditionalEdges(g *Graph) bool {
	for _, e := range g.Edges() {
		if e.IsConditional() {
			return true
		}
	}
	return false
}

func TestHasConditionalEdges(t *testing.T) {
	if !hasConditionalEdges(branchGraph(t)) {
		t.Error("CTG not recognized")
	}
	g := diamond(t)
	if hasConditionalEdges(g) {
		t.Error("plain graph misclassified as CTG")
	}
}

func TestExecutionProbabilities(t *testing.T) {
	g := branchGraph(t)
	p, err := g.ExecutionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.7, 0.3, 1.0, 0.7} // t3 joins 0.7+0.3
	for i, w := range want {
		if math.Abs(p[i]-w) > 1e-12 {
			t.Errorf("P(t%d) = %v, want %v", i, p[i], w)
		}
	}
}

func TestExecutionProbabilitiesUnconditional(t *testing.T) {
	g := diamond(t)
	p, err := g.ExecutionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if v != 1 {
			t.Errorf("P(t%d) = %v, want 1", i, v)
		}
	}
}

func TestExecutionProbabilitiesCapAtOne(t *testing.T) {
	// Two unconditional in-edges: sum would be 2, must cap at 1.
	g := diamond(t)
	p, err := g.ExecutionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	if p[3] != 1 {
		t.Errorf("join probability %v, want capped 1", p[3])
	}
}

func TestConditionalGraphRoundTrip(t *testing.T) {
	g := branchGraph(t)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ge, he := g.Edges(), got.Edges()
	for i := range ge {
		if ge[i] != he[i] {
			t.Errorf("edge %d changed: %+v vs %+v", i, ge[i], he[i])
		}
	}
	if !hasConditionalEdges(got) {
		t.Error("probability lost in round trip")
	}
}

// nestedBranchGraph builds a CTG whose branch sits under another
// branch, so execution probabilities multiply down the nesting and add
// at the join:
//
//	      t0
//	  0.6/  \0.4
//	    t1   t2
//	0.5/  \0.5 \
//	  t3   t4   t6
//	    \ /
//	     t5
func nestedBranchGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("nested", 100)
	for i := 0; i < 7; i++ {
		if err := b.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{
		{From: 0, To: 1, Data: 1, Prob: 0.6},
		{From: 0, To: 2, Data: 1, Prob: 0.4},
		{From: 1, To: 3, Data: 1, Prob: 0.5},
		{From: 1, To: 4, Data: 1, Prob: 0.5},
		{From: 3, To: 5, Data: 1},
		{From: 4, To: 5, Data: 1},
		{From: 2, To: 6, Data: 1},
	} {
		if err := b.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNestedBranchProbabilities(t *testing.T) {
	g := nestedBranchGraph(t)
	if err := g.ValidateProbabilities(); err != nil {
		t.Fatalf("nested CTG invalid: %v", err)
	}
	p, err := g.ExecutionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.6, 0.4, 0.3, 0.3, 0.6, 0.4}
	for i, w := range want {
		if math.Abs(p[i]-w) > 1e-12 {
			t.Errorf("P(t%d) = %v, want %v", i, p[i], w)
		}
	}
}
