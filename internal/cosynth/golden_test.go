package cosynth

import (
	"context"
	"math"
	"testing"

	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// Golden regression values for the fully deterministic platform flow
// (no GA involved): every generator and the scheduler are seeded, so
// these numbers are stable build-to-build. A change here means the
// reproduction pipeline changed behaviour — bump deliberately, together
// with testdata/golden/tables.txt in the root package.
func TestGoldenTable3Platform(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		bench            string
		policy           sched.Policy
		totPow, max, avg float64
	}{
		{"Bm1", sched.MinTaskEnergy, 10.86, 87.24, 80.91},
		{"Bm1", sched.ThermalAware, 10.82, 83.29, 80.78},
		{"Bm2", sched.MinTaskEnergy, 10.89, 86.22, 81.02},
		{"Bm2", sched.ThermalAware, 10.66, 84.20, 80.26},
		{"Bm3", sched.MinTaskEnergy, 11.18, 85.90, 81.98},
		{"Bm3", sched.ThermalAware, 10.55, 83.82, 79.91},
		{"Bm4", sched.MinTaskEnergy, 12.08, 87.62, 84.96},
		{"Bm4", sched.ThermalAware, 11.66, 85.36, 83.57},
	}
	const tol = 0.15 // °C / W; generous against FP environment drift
	for _, g := range golden {
		graph, err := taskgraph.Benchmark(g.bench)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunPlatform(context.Background(), graph, lib, PlatformConfig{Policy: g.policy})
		if err != nil {
			t.Fatalf("%s/%s: %v", g.bench, g.policy, err)
		}
		m := res.Metrics
		if math.Abs(m.TotalPower-g.totPow) > tol {
			t.Errorf("%s/%s total power %.2f, golden %.2f", g.bench, g.policy, m.TotalPower, g.totPow)
		}
		if math.Abs(m.MaxTemp-g.max) > tol {
			t.Errorf("%s/%s max temp %.2f, golden %.2f", g.bench, g.policy, m.MaxTemp, g.max)
		}
		if math.Abs(m.AvgTemp-g.avg) > tol {
			t.Errorf("%s/%s avg temp %.2f, golden %.2f", g.bench, g.policy, m.AvgTemp, g.avg)
		}
	}
}

// The headline deltas themselves, locked: thermal-aware improves peak
// temperature on every paper benchmark on the platform.
func TestGoldenThermalWinsEveryBenchmark(t *testing.T) {
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range taskgraph.BenchmarkNames() {
		g, err := taskgraph.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunPlatform(context.Background(), g, lib, PlatformConfig{Policy: sched.MinTaskEnergy})
		if err != nil {
			t.Fatal(err)
		}
		th, err := RunPlatform(context.Background(), g, lib, PlatformConfig{Policy: sched.ThermalAware})
		if err != nil {
			t.Fatal(err)
		}
		if th.Metrics.MaxTemp >= p.Metrics.MaxTemp {
			t.Errorf("%s: thermal max %.2f not below power-aware %.2f",
				name, th.Metrics.MaxTemp, p.Metrics.MaxTemp)
		}
		if th.Metrics.AvgTemp >= p.Metrics.AvgTemp {
			t.Errorf("%s: thermal avg %.2f not below power-aware %.2f",
				name, th.Metrics.AvgTemp, p.Metrics.AvgTemp)
		}
	}
}
