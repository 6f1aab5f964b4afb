package sched

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// buildPlatformModel creates the 4-PE platform with its thermal model,
// mirroring the paper's platform-based flow (Fig. 1b).
func buildPlatformModel(t testing.TB, lib *techlib.Library) (Architecture, *ModelOracle) {
	t.Helper()
	arch, err := PlatformFromTypes(lib, techlib.PlatformPETypeNames(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	area := lib.PEType(arch.PEs[0].Type).Area
	fp, err := floorplan.Grid("pe", 4, area)
	if err != nil {
		t.Fatal(err)
	}
	model, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewModelOracle(model, arch)
	if err != nil {
		t.Fatal(err)
	}
	return arch, oracle
}

// avgTempOf is the oracle's average temperature under pePower itself:
// a base with a zero delta.
func avgTempOf(t testing.TB, o ThermalOracle, pePower []float64) float64 {
	t.Helper()
	if err := o.SetBase(pePower); err != nil {
		t.Fatal(err)
	}
	avg, err := o.AvgTempDelta(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return avg
}

func TestModelOracleMapping(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, oracle := buildPlatformModel(t, lib)

	// Zero power → ambient average.
	avg := avgTempOf(t, oracle, make([]float64, len(arch.PEs)))
	if avg != hotspot.DefaultConfig().AmbientC {
		t.Errorf("zero-power avg = %v, want ambient", avg)
	}

	// More power → higher average.
	if hot := avgTempOf(t, oracle, []float64{5, 5, 5, 5}); hot <= avg {
		t.Errorf("power did not raise average temp: %v", hot)
	}

	// Wrong vector length rejected.
	if err := oracle.SetBase([]float64{1}); err == nil {
		t.Error("short power vector accepted")
	}
	if _, err := oracle.Temps([]float64{1}); err == nil {
		t.Error("short power vector accepted by Temps")
	}
}

func TestModelOracleRejectsUnknownPE(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.Grid("other", 4, 16e-6)
	if err != nil {
		t.Fatal(err)
	}
	model, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	arch, err := Platform(lib, techlib.PlatformPEType, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelOracle(model, arch); err == nil {
		t.Error("name mismatch between model and architecture accepted")
	}
}

// The headline behaviour of the paper: the thermal-aware ASP yields a
// lower peak and average steady-state temperature than the baseline on
// the platform architecture, because it balances power across PEs.
func TestThermalAwareBeatsBaselineOnPlatform(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, oracle := buildPlatformModel(t, lib)
	g, err := taskgraph.Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}

	base, err := AllocateAndSchedule(context.Background(), g, arch, lib, DefaultConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ThermalAware)
	cfg.Oracle = oracle
	therm, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Schedule{base, therm} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	basePow, err := base.PEAveragePower(g.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	thermPow, err := therm.PEAveragePower(g.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	baseTemps, err := oracle.Temps(basePow)
	if err != nil {
		t.Fatal(err)
	}
	thermTemps, err := oracle.Temps(thermPow)
	if err != nil {
		t.Fatal(err)
	}
	if thermTemps.Max() > baseTemps.Max() {
		t.Errorf("thermal-aware peak %v should not exceed baseline peak %v",
			thermTemps.Max(), baseTemps.Max())
	}
	if thermTemps.Avg() > baseTemps.Avg()+1e-9 {
		t.Errorf("thermal-aware avg %v should not exceed baseline avg %v",
			thermTemps.Avg(), baseTemps.Avg())
	}
}

// All four paper benchmarks must schedule feasibly on the platform under
// every policy — the paper's tables compare feasible schedules only.
func TestAllBenchmarksFeasibleOnPlatform(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, oracle := buildPlatformModel(t, lib)
	graphs, err := taskgraph.Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range graphs {
		for _, p := range Policies() {
			cfg := DefaultConfig(p)
			if p == ThermalAware {
				cfg.Oracle = oracle
			}
			s, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, p, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s/%s: invalid schedule: %v", g.Name, p, err)
			}
			if !s.MeetsDeadline() {
				t.Errorf("%s/%s: makespan %.0f misses deadline %.0f",
					g.Name, p, s.Makespan, g.Deadline)
			}
		}
	}
}

// Property: schedules of random graphs under random policies are always
// structurally valid.
func TestRandomGraphsScheduleValidProperty(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, oracle := buildPlatformModel(t, lib)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		minE := n - 1
		maxE := n * (n - 1) / 2
		e := minE + rng.Intn(maxE-minE+1)
		g, err := taskgraph.Generate(taskgraph.GenParams{
			Name: "p", Tasks: n, Edges: e, Deadline: 1e9,
			Types: taskgraph.NumTaskTypes, Sources: 1, MaxData: 20, Seed: seed,
		})
		if err != nil {
			return false
		}
		p := Policies()[rng.Intn(len(Policies()))]
		cfg := DefaultConfig(p)
		if p == ThermalAware {
			cfg.Oracle = oracle
		}
		s, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfg)
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every schedule's makespan respects the two classic lower
// bounds — the critical path (using each task's fastest WCET) and the
// total fastest work divided by the PE count.
func TestMakespanLowerBoundsProperty(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	arch, oracle := buildPlatformModel(t, lib)
	fastest := func(taskType int) float64 {
		best := math.Inf(1)
		for _, pe := range arch.PEs {
			if e, ok := lib.Lookup(pe.Type, taskType); ok && e.WCET < best {
				best = e.WCET
			}
		}
		return best
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		g, err := taskgraph.Generate(taskgraph.GenParams{
			Name: "lb", Tasks: n, Edges: n - 1 + rng.Intn(n),
			Deadline: 1e9, Types: taskgraph.NumTaskTypes,
			Sources: 1, MaxData: 10, Seed: seed,
		})
		if err != nil {
			return false
		}
		p := Policies()[rng.Intn(len(Policies()))]
		cfg := DefaultConfig(p)
		if p == ThermalAware {
			cfg.Oracle = oracle
		}
		s, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfg)
		if err != nil {
			return false
		}
		cp, err := g.CriticalPathLength(func(tk taskgraph.Task) float64 {
			return fastest(tk.Type)
		}, nil)
		if err != nil {
			return false
		}
		var work float64
		for _, tk := range g.Tasks() {
			work += fastest(tk.Type)
		}
		lower := math.Max(cp, work/float64(len(arch.PEs)))
		return s.Makespan >= lower-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
