package sim

import (
	"context"
	"math"
	"testing"

	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// ctgSchedule builds a schedule for a conditional task graph on two PEs:
// t0 branches to t1 (p=0.6) or t2 (p=0.4); both lead to t3.
func ctgSchedule(t *testing.T) *sched.Schedule {
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
	g := taskgraph.NewGraph("ctg", 1000)
	for i := 0; i < 4; i++ {
		if err := g.AddTask(taskgraph.Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []taskgraph.Edge{
		{From: 0, To: 1, Data: 1, Prob: 0.6},
		{From: 0, To: 2, Data: 1, Prob: 0.4},
		{From: 1, To: 3, Data: 1},
		{From: 2, To: 3, Data: 1},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	arch := sched.Architecture{
		Name: "duo",
		PEs:  []sched.PE{{Name: "p0", Type: 0}, {Name: "p1", Type: 1}},
	}
	s, err := sched.AllocateAndSchedule(context.Background(), g, arch, lib, sched.DefaultConfig(sched.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConditionalExecutionSkipsOneBranch(t *testing.T) {
	s := ctgSchedule(t)
	sawSkip := false
	for seed := int64(0); seed < 20; seed++ {
		res, err := Execute(s, Options{MinFactor: 1, Seed: seed, Conditional: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Exactly one of t1/t2 runs; t0 and t3 always run.
		r1, r2 := res.Records[1], res.Records[2]
		if r1.Skipped == r2.Skipped {
			t.Fatalf("seed %d: branches t1/t2 skipped=%v/%v, want exactly one taken",
				seed, r1.Skipped, r2.Skipped)
		}
		if res.Records[0].Skipped || res.Records[3].Skipped {
			t.Fatalf("seed %d: unconditional tasks skipped", seed)
		}
		if res.Executed != 3 {
			t.Fatalf("seed %d: executed %d, want 3", seed, res.Executed)
		}
		if r1.Skipped {
			sawSkip = true
		}
	}
	if !sawSkip {
		t.Error("t1 never skipped in 20 seeds (p=0.6 branch)")
	}
}

func TestConditionalBranchFrequency(t *testing.T) {
	s := ctgSchedule(t)
	took1 := 0
	const n = 400
	for seed := int64(0); seed < n; seed++ {
		res, err := Execute(s, Options{MinFactor: 1, Seed: seed, Conditional: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Records[1].Skipped {
			took1++
		}
	}
	freq := float64(took1) / n
	if math.Abs(freq-0.6) > 0.08 {
		t.Errorf("branch t1 taken %.2f of runs, want ≈ 0.6", freq)
	}
}

func TestConditionalEnergyBelowWorstCase(t *testing.T) {
	s := ctgSchedule(t)
	res, err := Execute(s, Options{MinFactor: 1, Seed: 3, Conditional: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy >= s.TotalEnergy() {
		t.Errorf("conditional energy %v should be below worst case %v (one branch skipped)",
			res.Energy, s.TotalEnergy())
	}
}

func TestExpectedEnergyMatchesProbabilities(t *testing.T) {
	s := ctgSchedule(t)
	exp, err := s.ExpectedEnergy()
	if err != nil {
		t.Fatal(err)
	}
	// Each task is 10 × 4 = 40 energy; P = [1, 0.6, 0.4, 1] → 40×3 = 120.
	if math.Abs(exp-120) > 1e-9 {
		t.Errorf("ExpectedEnergy = %v, want 120", exp)
	}
	if exp >= s.TotalEnergy() {
		t.Error("expected energy should be below worst case for a CTG")
	}
	pow, err := s.ExpectedPEAveragePower(1000)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range pow {
		sum += p
	}
	if math.Abs(sum-0.12) > 1e-9 {
		t.Errorf("expected power sum = %v, want 0.12", sum)
	}
	if _, err := s.ExpectedPEAveragePower(0); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestExpectedEnergyEqualsTotalForPlainGraph(t *testing.T) {
	s := platformSchedule(t, "Bm1", sched.Baseline)
	exp, err := s.ExpectedEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp-s.TotalEnergy()) > 1e-9 {
		t.Errorf("plain graph: expected %v != total %v", exp, s.TotalEnergy())
	}
}

func TestUnconditionalRunIgnoresProbabilities(t *testing.T) {
	s := ctgSchedule(t)
	res, err := Execute(s, Options{MinFactor: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 4 {
		t.Errorf("non-conditional run executed %d/4 tasks", res.Executed)
	}
}

// Skipped-branch PEs contribute zero power to the transient trace: the
// power-trace columns of a PE whose every task was skipped must be
// all-zero, and executed tasks must still appear. This is the trace the
// closed-loop runtime (internal/runtime) and the open-loop dtm.Run both
// feed from.
func TestConditionalTraceSkippedPEZeroPower(t *testing.T) {
	s := ctgSchedule(t)
	sawSkippedPE := false
	for seed := int64(0); seed < 20; seed++ {
		res, err := Execute(s, Options{MinFactor: 1, Seed: seed, Conditional: true})
		if err != nil {
			t.Fatal(err)
		}
		trace, err := res.Trace(2)
		if err != nil {
			t.Fatal(err)
		}
		executedOn := make([]bool, len(s.Arch.PEs))
		assignedOn := make([]bool, len(s.Arch.PEs))
		for _, rec := range res.Records {
			assignedOn[rec.PE] = true
			if !rec.Skipped {
				executedOn[rec.PE] = true
			}
		}
		var colSum [8]float64
		for _, row := range trace.Samples {
			for pe, w := range row {
				colSum[pe] += w
			}
		}
		for pe := range s.Arch.PEs {
			if assignedOn[pe] && !executedOn[pe] {
				sawSkippedPE = true
				if colSum[pe] != 0 {
					t.Errorf("seed %d: PE %d hosts only skipped tasks yet traces %g W·samples",
						seed, pe, colSum[pe])
				}
			}
			if executedOn[pe] && colSum[pe] <= 0 {
				t.Errorf("seed %d: PE %d executed tasks but traces no power", seed, pe)
			}
		}
	}
	if !sawSkippedPE {
		t.Error("no seed produced a PE with only skipped tasks; assertion never exercised")
	}
}

// Realize and Execute share one deterministic-seed contract: the
// durations Execute realizes are exactly the Realization's, and the
// same seed draws the same branches.
func TestRealizeMatchesExecute(t *testing.T) {
	s := ctgSchedule(t)
	for seed := int64(0); seed < 5; seed++ {
		opt := Options{MinFactor: 0.5, Seed: seed, Conditional: true}
		real, err := Realize(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		for id, rec := range res.Records {
			if rec.Skipped != !real.Executes[id] {
				t.Errorf("seed %d: task %d skip disagrees with realization", seed, id)
			}
			if rec.Skipped {
				continue
			}
			if d := rec.Finish - rec.Start; math.Abs(d-real.Actual[id]) > 1e-9 {
				t.Errorf("seed %d: task %d duration %g, realization drew %g", seed, id, d, real.Actual[id])
			}
		}
	}
}
