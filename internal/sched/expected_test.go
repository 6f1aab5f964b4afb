package sched

import (
	"context"
	"math"
	"testing"

	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// ctgSchedule builds a schedule for a conditional task graph on two PEs:
// t0 branches to t1 (p=0.6) or t2 (p=0.4); both lead to t3.
func ctgSchedule(t *testing.T) *Schedule {
	t.Helper()
	lib, err := techlib.NewLibrary(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := lib.AddPEType(
			techlib.PEType{Name: name, Cost: 1, Area: 1e-6, IdlePower: 0},
			[]techlib.Entry{{WCET: 10, WCPC: 4}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	b := taskgraph.NewBuilder("ctg", 1000)
	for i := 0; i < 4; i++ {
		if err := b.AddTask(taskgraph.Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []taskgraph.Edge{
		{From: 0, To: 1, Data: 1, Prob: 0.6},
		{From: 0, To: 2, Data: 1, Prob: 0.4},
		{From: 1, To: 3, Data: 1},
		{From: 2, To: 3, Data: 1},
	} {
		if err := b.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	arch := Architecture{
		Name: "duo",
		PEs:  []PE{{Name: "p0", Type: 0}, {Name: "p1", Type: 1}},
	}
	s, err := AllocateAndSchedule(context.Background(), g, arch, lib, DefaultConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// expectedEnergy is the probability-weighted energy of a schedule,
// Σ P(task) × E(task) with P from Graph.ExecutionProbabilities: the
// analytic reference that ties the CTG probabilities to the schedule's
// worst-case energies.
func expectedEnergy(t *testing.T, s *Schedule) float64 {
	t.Helper()
	probs, err := s.Graph.ExecutionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, a := range s.Assignments {
		sum += probs[a.Task] * a.Energy()
	}
	return sum
}

func TestExpectedEnergyMatchesProbabilities(t *testing.T) {
	s := ctgSchedule(t)
	exp := expectedEnergy(t, s)
	// Each task is 10 × 4 = 40 energy; P = [1, 0.6, 0.4, 1] → 40×3 = 120.
	if math.Abs(exp-120) > 1e-9 {
		t.Errorf("expected energy = %v, want 120", exp)
	}
	if exp >= s.TotalEnergy() {
		t.Error("expected energy should be below worst case for a CTG")
	}
}

func TestExpectedEnergyEqualsTotalForPlainGraph(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := PlatformFromTypes(lib, techlib.PlatformPETypeNames(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := AllocateAndSchedule(context.Background(), g, arch, lib, DefaultConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	exp := expectedEnergy(t, s)
	if math.Abs(exp-s.TotalEnergy()) > 1e-9 {
		t.Errorf("plain graph: expected %v != total %v", exp, s.TotalEnergy())
	}
}
