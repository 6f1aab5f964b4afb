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
	g := NewGraph("ctg", 100)
	for i := 0; i < 5; i++ {
		if err := g.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
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
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
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
	g := NewGraph("g", 10)
	for i := 0; i < 2; i++ {
		if err := g.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if err := g.AddEdge(Edge{From: 0, To: 1, Data: 1, Prob: p}); err == nil {
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
	bad := NewGraph("bad", 100)
	for i := 0; i < 3; i++ {
		if err := bad.AddTask(Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bad.AddEdge(Edge{From: 0, To: 1, Data: 1, Prob: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := bad.AddEdge(Edge{From: 0, To: 2, Data: 1, Prob: 0.8}); err != nil {
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

func TestGenerateConditional(t *testing.T) {
	g, err := Generate(GenParams{
		Name: "ctg", Tasks: 30, Edges: 45, Deadline: 1000,
		Types: 4, Sources: 1, MaxData: 10, BranchFraction: 1.0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hasConditionalEdges(g) {
		t.Fatal("BranchFraction 1.0 produced no conditional edges")
	}
	if err := g.ValidateProbabilities(); err != nil {
		t.Fatalf("generated CTG invalid: %v", err)
	}
	probs, err := g.ExecutionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	below := 0
	for _, p := range probs {
		if p <= 0 || p > 1 {
			t.Fatalf("execution probability %v out of (0,1]", p)
		}
		if p < 1 {
			below++
		}
	}
	if below == 0 {
		t.Error("no task has execution probability below 1")
	}
}

func TestGenerateConditionalZeroFractionUnchanged(t *testing.T) {
	g, err := Generate(GenParams{
		Name: "plain", Tasks: 20, Edges: 30, Deadline: 1000,
		Types: 4, Sources: 1, MaxData: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hasConditionalEdges(g) {
		t.Error("zero BranchFraction produced conditional edges")
	}
}

func TestGenerateBranchFractionValidation(t *testing.T) {
	_, err := Generate(GenParams{
		Name: "bad", Tasks: 5, Edges: 6, Deadline: 10,
		Types: 1, Sources: 1, MaxData: 2, BranchFraction: 1.5, Seed: 1,
	})
	if err == nil {
		t.Error("BranchFraction 1.5 accepted")
	}
}
