package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

func platformSchedule(t testing.TB, bench string, policy sched.Policy) *sched.Schedule {
	t.Helper()
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskgraph.Benchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.PlatformConfig{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

func TestOptionsValidate(t *testing.T) {
	for _, bad := range []float64{0, -0.5, 1.5} {
		if err := (Options{MinFactor: bad}).Validate(); err == nil {
			t.Errorf("MinFactor %v accepted", bad)
		}
	}
	if err := (Options{MinFactor: 1}).Validate(); err != nil {
		t.Errorf("MinFactor 1 rejected: %v", err)
	}
}

func TestExecuteWorstCaseReproducesSchedule(t *testing.T) {
	s := platformSchedule(t, "Bm1", sched.Baseline)
	res, err := Execute(s, Options{MinFactor: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-s.Makespan) > 1e-6 {
		t.Errorf("worst-case replay makespan %v, schedule %v", res.Makespan, s.Makespan)
	}
	if math.Abs(res.Energy-s.TotalEnergy()) > 1e-6 {
		t.Errorf("worst-case replay energy %v, schedule %v", res.Energy, s.TotalEnergy())
	}
	for id, rec := range res.Records {
		a := s.Assignments[id]
		if math.Abs(rec.Start-a.Start) > 1e-6 || math.Abs(rec.Finish-a.Finish) > 1e-6 {
			t.Errorf("task %d timing differs: [%v,%v] vs [%v,%v]",
				id, rec.Start, rec.Finish, a.Start, a.Finish)
		}
	}
}

func TestExecuteShorterTasksNeverLater(t *testing.T) {
	s := platformSchedule(t, "Bm2", sched.MinTaskEnergy)
	res, err := Execute(s, Options{MinFactor: 0.6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Makespan > s.Makespan+1e-9 {
		t.Errorf("actual makespan %v exceeds worst case %v", res.Makespan, s.Makespan)
	}
	if res.Energy > s.TotalEnergy()+1e-9 {
		t.Errorf("actual energy %v exceeds worst case %v", res.Energy, s.TotalEnergy())
	}
	// Every task finishes no later than its static schedule slot.
	for id, rec := range res.Records {
		if rec.Finish > s.Assignments[id].Finish+1e-9 {
			t.Errorf("task %d finishes at %v, after static %v",
				id, rec.Finish, s.Assignments[id].Finish)
		}
	}
}

func TestExecuteDeterministic(t *testing.T) {
	s := platformSchedule(t, "Bm1", sched.Baseline)
	a, err := Execute(s, Options{MinFactor: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(s, Options{MinFactor: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for id := range a.Records {
		if a.Records[id] != b.Records[id] {
			t.Fatalf("task %d differs across identical runs", id)
		}
	}
	c, err := Execute(s, Options{MinFactor: 0.7, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan && c.Energy == a.Energy {
		t.Log("warning: different seeds produced identical results (possible but unlikely)")
	}
}

func TestExecuteRejectsBadInput(t *testing.T) {
	s := platformSchedule(t, "Bm1", sched.Baseline)
	if _, err := Execute(s, Options{MinFactor: 0}); err == nil {
		t.Error("invalid options accepted")
	}
	s.Assignments[0].Finish += 100 // corrupt
	if _, err := Execute(s, Options{MinFactor: 1}); err == nil {
		t.Error("corrupt schedule accepted")
	}
}

func TestResultValidateCatchesCorruption(t *testing.T) {
	s := platformSchedule(t, "Bm1", sched.Baseline)
	res, err := Execute(s, Options{MinFactor: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res.Records[0].PE = (res.Records[0].PE + 1) % len(s.Arch.PEs)
	if err := res.Validate(); err == nil {
		t.Error("PE migration not detected")
	}
}

func TestTraceFeedsHotSpot(t *testing.T) {
	s := platformSchedule(t, "Bm1", sched.ThermalAware)
	res, err := Execute(s, Options{MinFactor: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := res.Trace(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Trace energy (Σ power × dt) must match the realized energy.
	var total float64
	for _, row := range trace.Samples {
		for _, w := range row {
			total += w * 10
		}
	}
	if math.Abs(total-res.Energy) > 1e-6*(1+res.Energy) {
		t.Errorf("trace energy %v, realized %v", total, res.Energy)
	}
	// And it must drive the thermal model.
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	_, _, model, _, err := cosynth.BuildPlatform(lib, cosynth.DefaultBusTimePerUnit, hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := trace.Reorder(model.BlockNames())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.NewTransient(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(samples); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Trace(0); err == nil {
		t.Error("zero trace step accepted")
	}
}

// Property: for random factors and seeds, execution is always valid and
// never later/hungrier than the worst case.
func TestExecuteProperty(t *testing.T) {
	s := platformSchedule(t, "Bm3", sched.MinTaskEnergy)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opt := Options{MinFactor: 0.3 + 0.7*rng.Float64(), Seed: seed}
		res, err := Execute(s, opt)
		if err != nil {
			return false
		}
		return res.Validate() == nil &&
			res.Makespan <= s.Makespan+1e-9 &&
			res.Energy <= s.TotalEnergy()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A makespan that is an exact multiple of dt must produce exactly
// Makespan/dt samples: the old `int(Makespan/dt)+1` sizing appended a
// trailing all-zero power row, padding every transient/DTM run with a
// spurious cooling step.
func TestTraceNoTrailingZeroSample(t *testing.T) {
	s := platformSchedule(t, "Bm1", sched.Baseline)
	res, err := Execute(s, Options{MinFactor: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, div := range []int{1, 3, 7} {
		dt := res.Makespan / float64(div)
		trace, err := res.Trace(dt)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace.Samples) != div {
			t.Fatalf("dt = makespan/%d: %d samples, want %d", div, len(trace.Samples), div)
		}
		last := trace.Samples[len(trace.Samples)-1]
		var power float64
		for _, w := range last {
			power += w
		}
		if power <= 0 {
			t.Errorf("dt = makespan/%d: trailing sample is all-zero", div)
		}
	}
	// dt longer than the makespan still yields the single covering sample.
	trace, err := res.Trace(res.Makespan * 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Samples) != 1 {
		t.Errorf("oversized dt: %d samples, want 1", len(trace.Samples))
	}
	// Energy is conserved whatever the sampling step.
	trace, err = res.Trace(res.Makespan / 5)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, row := range trace.Samples {
		for _, w := range row {
			total += w * res.Makespan / 5
		}
	}
	if math.Abs(total-res.Energy) > 1e-6*(1+res.Energy) {
		t.Errorf("trace energy %v, realized %v", total, res.Energy)
	}
}
