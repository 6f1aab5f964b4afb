package cosynth

import (
	"context"
	"math"
	"testing"

	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

func stdLib(t testing.TB) *techlib.Library {
	t.Helper()
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func bm(t testing.TB, name string) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withGenerations is DefaultCoSynthConfig(p) at the given GA
// floorplanner effort.
func withGenerations(p sched.Policy, generations int) CoSynthConfig {
	c := DefaultCoSynthConfig(p)
	c.FloorplanGenerations = generations
	return c
}

func TestRunPlatformBaseline(t *testing.T) {
	res, err := RunPlatform(context.Background(), bm(t, "Bm1"), stdLib(t), DefaultPlatformConfig(sched.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if !res.Metrics.Feasible {
		t.Errorf("Bm1 baseline infeasible on platform: makespan %v", res.Metrics.Makespan)
	}
	if res.Metrics.TotalPower < 5 || res.Metrics.TotalPower > 45 {
		t.Errorf("total power %v outside the paper's band", res.Metrics.TotalPower)
	}
	if res.Metrics.MaxTemp < res.Metrics.AvgTemp {
		t.Error("max temp below avg temp")
	}
	if len(res.Arch.PEs) != 4 {
		t.Errorf("platform has %d PEs", len(res.Arch.PEs))
	}
	if res.Plan.NumBlocks() != 4 {
		t.Error("platform floorplan wrong")
	}
}

func TestRunPlatformAllPolicies(t *testing.T) {
	lib := stdLib(t)
	g := bm(t, "Bm1")
	for _, p := range sched.Policies() {
		res, err := RunPlatform(context.Background(), g, lib, DefaultPlatformConfig(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Metrics.Feasible {
			t.Errorf("%v: infeasible (makespan %v)", p, res.Metrics.Makespan)
		}
	}
}

func TestRunPlatformThermalBeatsBaselineTemps(t *testing.T) {
	lib := stdLib(t)
	g := bm(t, "Bm3")
	base, err := RunPlatform(context.Background(), g, lib, DefaultPlatformConfig(sched.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	therm, err := RunPlatform(context.Background(), g, lib, DefaultPlatformConfig(sched.ThermalAware))
	if err != nil {
		t.Fatal(err)
	}
	if therm.Metrics.MaxTemp >= base.Metrics.MaxTemp {
		t.Errorf("thermal max %v should beat baseline max %v",
			therm.Metrics.MaxTemp, base.Metrics.MaxTemp)
	}
	if therm.Metrics.AvgTemp >= base.Metrics.AvgTemp {
		t.Errorf("thermal avg %v should beat baseline avg %v",
			therm.Metrics.AvgTemp, base.Metrics.AvgTemp)
	}
}

func TestRunPlatformCustomHotSpotConfig(t *testing.T) {
	hs := hotspot.DefaultConfig()
	hs.AmbientC = 25
	cfg := DefaultPlatformConfig(sched.Baseline)
	cfg.HotSpot = hs
	res, err := RunPlatform(context.Background(), bm(t, "Bm1"), stdLib(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 20 °C cooler ambient shifts temperatures down.
	if res.Metrics.MaxTemp > 100 {
		t.Errorf("max temp %v with 25 °C ambient seems unshifted", res.Metrics.MaxTemp)
	}
}

func TestRunCoSynthesisMeetsDeadline(t *testing.T) {
	lib := stdLib(t)
	for _, name := range []string{"Bm1", "Bm2"} {
		g := bm(t, name)
		res, err := RunCoSynthesis(context.Background(), g, lib, withGenerations(sched.MinTaskEnergy, 10))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%s: invalid schedule: %v", name, err)
		}
		if !res.Metrics.Feasible {
			t.Errorf("%s: co-synthesis missed deadline (makespan %v)", name, res.Metrics.Makespan)
		}
		if res.Metrics.Cost <= 0 {
			t.Errorf("%s: cost %v", name, res.Metrics.Cost)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Errorf("%s: invalid floorplan: %v", name, err)
		}
		if res.Plan.NumBlocks() != len(res.Arch.PEs) {
			t.Errorf("%s: floorplan/arch mismatch", name)
		}
	}
}

func TestRunCoSynthesisThermalFlow(t *testing.T) {
	lib := stdLib(t)
	g := bm(t, "Bm1")
	res, err := RunCoSynthesis(context.Background(), g, lib, withGenerations(sched.ThermalAware, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Feasible {
		t.Errorf("thermal co-synthesis missed deadline (makespan %v)", res.Metrics.Makespan)
	}
	if math.IsNaN(res.Metrics.MaxTemp) || res.Metrics.MaxTemp < 45 {
		t.Errorf("implausible max temp %v", res.Metrics.MaxTemp)
	}
}

func TestRunCoSynthesisUsesFewPEs(t *testing.T) {
	// Cost-driven selection should not instantiate more PEs than MaxPEs
	// and should prune unneeded ones.
	lib := stdLib(t)
	cfg := withGenerations(sched.Baseline, 5)
	cfg.MaxPEs = 5
	res, err := RunCoSynthesis(context.Background(), bm(t, "Bm1"), lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Arch.PEs); n < 1 || n > 5 {
		t.Errorf("co-synthesis produced %d PEs", n)
	}
}

func TestRunCoSynthesisErrors(t *testing.T) {
	lib := stdLib(t)
	g := bm(t, "Bm1")
	unknown := DefaultCoSynthConfig(sched.Baseline)
	unknown.CandidateTypes = []string{"nonexistent"}
	if _, err := RunCoSynthesis(context.Background(), g, lib, unknown); err == nil {
		t.Error("unknown candidate type accepted")
	}
	for _, n := range []int{-1, 0} {
		cfg := DefaultCoSynthConfig(sched.Baseline)
		cfg.MaxPEs = n
		if _, err := RunCoSynthesis(context.Background(), g, lib, cfg); err == nil {
			t.Errorf("MaxPEs %d accepted", n)
		}
	}
	if _, err := RunCoSynthesis(context.Background(), taskgraph.NewGraph("empty", 1), lib, DefaultCoSynthConfig(sched.Baseline)); err == nil {
		t.Error("empty graph accepted")
	}
}

// The paper's cross-table observation: the platform architecture yields
// lower temperatures than the customized (cost-minimized) architecture
// under the thermal-aware ASP, because four identical PEs let the
// scheduler balance the load.
func TestPlatformCoolerThanCoSynthesisThermal(t *testing.T) {
	lib := stdLib(t)
	g := bm(t, "Bm1")
	plat, err := RunPlatform(context.Background(), g, lib, DefaultPlatformConfig(sched.ThermalAware))
	if err != nil {
		t.Fatal(err)
	}
	cos, err := RunCoSynthesis(context.Background(), g, lib, withGenerations(sched.ThermalAware, 10))
	if err != nil {
		t.Fatal(err)
	}
	if plat.Metrics.MaxTemp > cos.Metrics.MaxTemp+1 {
		t.Errorf("platform thermal max %v should not exceed co-synthesis max %v",
			plat.Metrics.MaxTemp, cos.Metrics.MaxTemp)
	}
}
