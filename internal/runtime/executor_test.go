package runtime

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/sched"
)

// The tests below pin the executor's behaviour with no supervisor: every
// PE runs at full speed, so Simulate is a pure realized replay of the
// static schedule.

// unthrottled runs the schedule with no supervisor under the realization
// knobs minFactor, seed and conditional.
func unthrottled(t *testing.T, res *cosynth.Result, minFactor float64, seed int64, conditional bool) *Result {
	t.Helper()
	cfg := baseConfig()
	cfg.MinFactor, cfg.Seed, cfg.Conditional = minFactor, seed, conditional
	r, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWorstCaseReplayReproducesSchedule(t *testing.T) {
	run := platformRun(t, "Bm1", sched.Baseline)
	s := run.Schedule
	res := unthrottled(t, run, 1, 1, false)
	if err := res.Validate(s); err != nil {
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

func TestShorterTasksNeverLater(t *testing.T) {
	run := platformRun(t, "Bm2", sched.MinTaskEnergy)
	s := run.Schedule
	res := unthrottled(t, run, 0.6, 42, false)
	if err := res.Validate(s); err != nil {
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

func TestUnthrottledDeterministic(t *testing.T) {
	run := platformRun(t, "Bm1", sched.Baseline)
	a := unthrottled(t, run, 0.7, 5, false)
	b := unthrottled(t, run, 0.7, 5, false)
	for id := range a.Records {
		if a.Records[id] != b.Records[id] {
			t.Fatalf("task %d differs across identical runs", id)
		}
	}
	c := unthrottled(t, run, 0.7, 6, false)
	if c.Makespan == a.Makespan && c.Energy == a.Energy {
		t.Log("warning: different seeds produced identical results (possible but unlikely)")
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	run := platformRun(t, "Bm1", sched.Baseline)
	s := run.Schedule
	cfg := baseConfig()
	cfg.MinFactor = 0
	if _, err := Simulate(context.Background(), s, run.Model, cfg); err == nil {
		t.Error("invalid options accepted")
	}
	s.Assignments[0].Finish += 100 // corrupt
	if _, err := Simulate(context.Background(), s, run.Model, baseConfig()); err == nil {
		t.Error("corrupt schedule accepted")
	}
}

func TestResultValidateCatchesCorruption(t *testing.T) {
	run := platformRun(t, "Bm1", sched.Baseline)
	s := run.Schedule
	res := unthrottled(t, run, 0.8, 3, false)
	res.Records[0].PE = (res.Records[0].PE + 1) % len(s.Arch.PEs)
	if err := res.Validate(s); err == nil {
		t.Error("PE migration not detected")
	}
}

// Property: for random factors and seeds, execution is always valid and
// never later/hungrier than the worst case.
func TestUnthrottledProperty(t *testing.T) {
	run := platformRun(t, "Bm3", sched.MinTaskEnergy)
	s := run.Schedule
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := baseConfig()
		cfg.MinFactor, cfg.Seed = 0.3+0.7*rng.Float64(), seed
		res, err := Simulate(context.Background(), s, run.Model, cfg)
		if err != nil {
			return false
		}
		return res.Validate(s) == nil &&
			res.Makespan <= s.Makespan+1e-9 &&
			res.Energy <= s.TotalEnergy()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConditionalExecutionSkipsOneBranch(t *testing.T) {
	s, run := ctgPlatform(t)
	sawSkip := false
	for seed := int64(0); seed < 20; seed++ {
		res := unthrottled(t, run, 1, seed, true)
		if err := res.Validate(s); err != nil {
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
	_, run := ctgPlatform(t)
	took1 := 0
	const n = 400
	for seed := int64(0); seed < n; seed++ {
		if res := unthrottled(t, run, 1, seed, true); !res.Records[1].Skipped {
			took1++
		}
	}
	freq := float64(took1) / n
	if math.Abs(freq-0.6) > 0.08 {
		t.Errorf("branch t1 taken %.2f of runs, want ≈ 0.6", freq)
	}
}

func TestConditionalEnergyBelowWorstCase(t *testing.T) {
	s, run := ctgPlatform(t)
	res := unthrottled(t, run, 1, 3, true)
	if res.Energy >= s.TotalEnergy() {
		t.Errorf("conditional energy %v should be below worst case %v (one branch skipped)",
			res.Energy, s.TotalEnergy())
	}
}

func TestUnconditionalRunIgnoresProbabilities(t *testing.T) {
	_, run := ctgPlatform(t)
	if res := unthrottled(t, run, 1, 3, false); res.Executed != 4 {
		t.Errorf("non-conditional run executed %d/4 tasks", res.Executed)
	}
}

// Realize and Simulate share one deterministic-seed contract: with no
// supervisor the durations Simulate realizes are exactly the
// Realization's, and the same seed draws the same branches.
func TestRealizeMatchesSimulate(t *testing.T) {
	s, run := ctgPlatform(t)
	for seed := int64(0); seed < 5; seed++ {
		cfg := baseConfig()
		cfg.MinFactor, cfg.Seed, cfg.Conditional = 0.5, seed, true
		real, err := Realize(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := unthrottled(t, run, 0.5, seed, true)
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
