package runtime

import (
	"context"
	"math"
	"testing"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

func platformRun(t *testing.T, bench string, policy sched.Policy) *cosynth.Result {
	t.Helper()
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskgraph.Benchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.DefaultPlatformConfig(policy))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseConfig() Config {
	return Config{DT: 1, TimeScale: 0.1, MinFactor: 1}
}

// With no controller the closed-loop executor is exactly the open-loop
// reference executor (openLoopExecute): same realization, same dispatch
// rule, so the same makespan and energy.
func TestUnthrottledMatchesOpenLoopExecutor(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	for _, seed := range []int64{0, 1, 7} {
		cfg := baseConfig()
		cfg.MinFactor, cfg.Seed = 0.6, seed
		closed, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := closed.Validate(res.Schedule); err != nil {
			t.Fatal(err)
		}
		open, err := openLoopExecute(res.Schedule, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(closed.Makespan-open.Makespan) > 1e-6 {
			t.Errorf("seed %d: closed-loop makespan %g, open-loop %g", seed, closed.Makespan, open.Makespan)
		}
		if math.Abs(closed.Energy-open.Energy) > 1e-6 {
			t.Errorf("seed %d: closed-loop energy %g, open-loop %g", seed, closed.Energy, open.Energy)
		}
		if closed.ThrottleTime != 0 {
			t.Errorf("seed %d: unthrottled run reports throttle time %g", seed, closed.ThrottleTime)
		}
	}
}

// The closed-loop property of the acceptance criteria: with a toggle
// controller triggered below the schedule's peak steady-state
// temperature, throttling stretches execution, so the simulated
// makespan strictly exceeds the unthrottled makespan.
func TestThrottlingStretchesMakespan(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	peak := res.Metrics.MaxTemp
	trigger := 60.0
	if trigger >= peak {
		t.Fatalf("test trigger %g not below steady-state peak %g", trigger, peak)
	}

	free, err := Simulate(context.Background(), res.Schedule, res.Model, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := dtm.NewToggleController(trigger, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Supervisor = ctrl
	throttled, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := throttled.Validate(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if throttled.ThrottleTime <= 0 {
		t.Fatalf("trigger %g below peak %g yet no throttling occurred", trigger, peak)
	}
	if !(throttled.Makespan > free.Makespan) {
		t.Errorf("throttled makespan %g not strictly above unthrottled %g", throttled.Makespan, free.Makespan)
	}
	// Energy is conserved under throttling: work stretches, power scales.
	if math.Abs(throttled.Energy-free.Energy) > 1e-6*free.Energy {
		t.Errorf("throttling changed delivered energy: %g vs %g", throttled.Energy, free.Energy)
	}
}

// Warm-starting from the schedule's steady-state operating point makes
// the very first steps run hot, so a trigger below the steady peak
// throttles immediately.
func TestWarmStartBeginsAtOperatingPoint(t *testing.T) {
	res := platformRun(t, "Bm2", sched.ThermalAware)
	cfg := baseConfig()
	cfg.WarmStart = true
	r, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakTempC < res.Metrics.MaxTemp-15 {
		t.Errorf("warm-started peak %g far below steady-state peak %g", r.PeakTempC, res.Metrics.MaxTemp)
	}
	cold, err := Simulate(context.Background(), res.Schedule, res.Model, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !(r.PeakTempC > cold.PeakTempC) {
		t.Errorf("warm start peak %g not above cold start peak %g", r.PeakTempC, cold.PeakTempC)
	}
}

// A controller throttled to factor 0 with an unreachable un-throttle
// band stalls the run; the step bound must turn that into an error
// rather than an infinite loop.
func TestStalledRunHitsStepBound(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	ctrl, err := dtm.NewToggleController(46, 1000, 0) // throttle to zero, never release
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Supervisor = ctrl
	cfg.WarmStart = true // start hot so the trigger fires immediately
	if _, err := Simulate(context.Background(), res.Schedule, res.Model, cfg); err == nil {
		t.Fatal("standstill run returned without error")
	}
}

func TestSimulateCancellation(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, res.Schedule, res.Model, baseConfig()); err == nil {
		t.Fatal("cancelled simulation returned without error")
	}
}

func TestConfigValidation(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	bad := []Config{
		{DT: 0, TimeScale: 1, MinFactor: 1},
		{DT: 1, TimeScale: 0, MinFactor: 1},
		{DT: 1, TimeScale: 1, MinFactor: 0},
	}
	for i, cfg := range bad {
		if _, err := Simulate(context.Background(), res.Schedule, res.Model, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// MinFactor is the lower bound of the per-task duration draw, so it must
// lie in (0, 1]; 1 is the worst-case replay.
func TestConfigValidateMinFactor(t *testing.T) {
	for _, bad := range []float64{0, -0.5, 1.5} {
		if err := (Config{DT: 1, TimeScale: 1, MinFactor: bad}).Validate(); err == nil {
			t.Errorf("MinFactor %v accepted", bad)
		}
	}
	if err := (Config{DT: 1, TimeScale: 1, MinFactor: 1}).Validate(); err != nil {
		t.Errorf("MinFactor 1 rejected: %v", err)
	}
}

// Supervisor state must never leak between Monte-Carlo replicas: the
// core resets the supervisor before stepping, so running replica N on a
// supervisor that already served N−1 other replicas is byte-identical
// to running it on a fresh instance. Exercised for the two stateful
// kinds — the PI controller's integral term and the admit controller's
// retry-after embargoes.
func TestSupervisorResetHygieneAcrossReplicas(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	supervisors := map[string]func() dtm.Controller{
		"pi": func() dtm.Controller {
			ctrl, err := dtm.NewPIController(70, 0.05, 0.01, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			return ctrl
		},
		"admit": func() dtm.Controller {
			sup, err := dtm.NewAdmitController(dtm.DefaultLadder, 0.7, 0.4, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			return sup
		},
	}
	run := func(sup dtm.Controller, seed int64) *Result {
		t.Helper()
		cfg := baseConfig()
		cfg.Supervisor = sup
		cfg.WarmStart = true // start hot so both kinds accumulate state
		cfg.MinFactor, cfg.Seed = 0.6, seed
		r, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, build := range supervisors {
		t.Run(name, func(t *testing.T) {
			// Fresh instance per replica: the leak-free reference.
			var want []*Result
			for seed := int64(0); seed < 3; seed++ {
				want = append(want, run(build(), seed))
			}
			// One shared instance across all replicas in sequence.
			shared := build()
			for seed := int64(0); seed < 3; seed++ {
				got := run(shared, seed)
				ref := want[seed]
				if got.Makespan != ref.Makespan || got.PeakTempC != ref.PeakTempC ||
					got.ThrottleTime != ref.ThrottleTime || got.Energy != ref.Energy ||
					got.AdmissionDenials != ref.AdmissionDenials || got.Steps != ref.Steps {
					t.Errorf("seed %d: replica after %d prior runs differs from fresh instance:\n got %+v\nwant %+v",
						seed, seed, got, ref)
				}
				for id := range ref.Records {
					if got.Records[id] != ref.Records[id] {
						t.Errorf("seed %d: record %d differs between shared and fresh supervisor", seed, id)
					}
				}
			}
		})
	}
}

// ctgSchedule builds a schedule for a conditional task graph on two PEs
// whose floorplan blocks are named after the PEs, so the runtime can map
// them. t0 branches to t1 (p=0.6) or t2 (p=0.4); both lead to t3.
func ctgPlatform(t *testing.T) (*sched.Schedule, *cosynth.Result) {
	t.Helper()
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	b := taskgraph.NewBuilder("ctg", 2000)
	for i := 0; i < 4; i++ {
		if err := b.AddTask(taskgraph.Task{ID: i, Name: "t", Type: i % taskgraph.NumTaskTypes}); err != nil {
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
	res, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.DefaultPlatformConfig(sched.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule, res
}

// Conditional runs through the closed loop: PEs that only host
// skipped-branch tasks draw exactly zero power, and the seeded
// realization is deterministic — two runs of the same replica seed are
// bit-identical, and the branch draw matches the reference executor's.
func TestConditionalSkippedBranchZeroPower(t *testing.T) {
	s, res := ctgPlatform(t)
	sawSkip := false
	for seed := int64(0); seed < 10; seed++ {
		cfg := baseConfig()
		cfg.MinFactor, cfg.Seed, cfg.Conditional = 1, seed, true
		r1, err := Simulate(context.Background(), s, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r1.Validate(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		open, err := openLoopExecute(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id := range r1.Records {
			if r1.Records[id].Skipped != open.Records[id].Skipped {
				t.Fatalf("seed %d: task %d branch draw differs from the reference executor", seed, id)
			}
		}
		// Any PE that hosts only skipped tasks must contribute zero
		// power/energy to the thermal trace.
		executedOn := make([]bool, len(s.Arch.PEs))
		assignedOn := make([]bool, len(s.Arch.PEs))
		for _, rec := range r1.Records {
			assignedOn[rec.PE] = true
			if !rec.Skipped {
				executedOn[rec.PE] = true
			}
		}
		for pe := range executedOn {
			if assignedOn[pe] && !executedOn[pe] {
				sawSkip = true
				if r1.PerPEEnergy[pe] != 0 {
					t.Errorf("seed %d: PE %d hosts only skipped tasks yet drew %g energy",
						seed, pe, r1.PerPEEnergy[pe])
				}
			}
		}
		// Deterministic-seed contract: replaying the same seed is
		// bit-identical.
		r2, err := Simulate(context.Background(), s, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Makespan != r2.Makespan || r1.PeakTempC != r2.PeakTempC ||
			r1.ThrottleTime != r2.ThrottleTime || r1.Energy != r2.Energy {
			t.Errorf("seed %d: replay differs: %+v vs %+v", seed, r1, r2)
		}
		for id := range r1.Records {
			if r1.Records[id] != r2.Records[id] {
				t.Errorf("seed %d: record %d differs across replays", seed, id)
			}
		}
	}
	if !sawSkip {
		t.Log("no seed produced a PE with only skipped tasks; zero-power assertion not exercised")
	}
}

// TestValidateIgnoresUnfiredEdgeAtORJoin runs an OR-join whose
// executed branch source does not feed it. t0 on p0 branches to t1
// (p0, p=0.5) or straight to the join t2 (p1, p=0.5, a 1000-unit
// transfer); t1 always feeds t2. When t1's branch is taken, the edge
// t0→t2 does not fire, so t2 starts as soon as t1's data arrives —
// long before t0's unfired 1000-unit transfer would have landed. The
// run is valid, and Validate must say so.
func TestValidateIgnoresUnfiredEdgeAtORJoin(t *testing.T) {
	lib, err := techlib.NewLibrary(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := lib.AddPEType(techlib.PEType{Name: name, Cost: 1, Area: 1e-6},
			[]techlib.Entry{{WCET: 10, WCPC: 4}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	b := taskgraph.NewBuilder("orjoin", 1000)
	for i := 0; i < 3; i++ {
		if err := b.AddTask(taskgraph.Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []taskgraph.Edge{
		{From: 0, To: 1, Data: 1, Prob: 0.5},
		{From: 0, To: 2, Data: 1000, Prob: 0.5},
		{From: 1, To: 2, Data: 1},
	} {
		if err := b.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const bus = 0.05
	s := &sched.Schedule{
		Graph: g,
		Arch: sched.Architecture{Name: "duo", BusTimePerUnit: bus,
			PEs: []sched.PE{{Name: "p0", Type: 0}, {Name: "p1", Type: 1}}},
		Lib: lib,
		Assignments: []sched.Assignment{
			{Task: 0, PE: 0, Start: 0, Finish: 10, Power: 4},
			{Task: 1, PE: 0, Start: 10, Finish: 20, Power: 4},
			{Task: 2, PE: 1, Start: 60, Finish: 70, Power: 4}, // after t0's 1000·bus transfer
		},
		Makespan: 70,
	}
	fp, err := floorplan.Row("p", 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	model, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sawEarlyJoin := false
	for seed := int64(0); seed < 10; seed++ {
		cfg := baseConfig()
		cfg.MinFactor, cfg.Seed, cfg.Conditional = 1, seed, true
		r, err := Simulate(context.Background(), s, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(s); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if !r.Records[1].Skipped && r.Records[2].Start < r.Records[0].Finish+1000*bus {
			sawEarlyJoin = true
		}
	}
	if !sawEarlyJoin {
		t.Fatal("no seed took t1's branch and started the join before t0's unfired transfer")
	}
}
