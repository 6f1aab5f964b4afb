// Thermal exploration: beyond the paper's steady-state tables, this
// example exercises the substrates directly — a thermal-aware GA
// floorplan for a heterogeneous SoC, then the transient side of a real
// schedule: the simulate flow replays the thermal-aware Bm2 schedule
// through the transient thermal model with no DTM controller, once
// from a cold die and once warm-started at the schedule's steady-state
// operating point.
//
//	go run ./examples/thermal_exploration
package main

import (
	"context"
	"fmt"
	"log"

	"thermalsched"
)

func main() {
	engine, err := thermalsched.NewEngine()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// 1. Thermal-aware floorplanning of a small heterogeneous SoC.
	blocks := []thermalsched.FloorplanBlock{
		{Name: "cpu0", Area: 16e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "cpu1", Area: 16e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "dsp", Area: 9e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "accel", Area: 25e-6, MinAspect: 0.5, MaxAspect: 2},
	}
	hot := map[string]float64{"cpu0": 7, "cpu1": 7, "dsp": 2, "accel": 4}
	cfg := thermalsched.DefaultGAConfig()
	cfg.Generations = 40
	thermal := thermalsched.DefaultThermalConfig()
	cfg.Eval = func(fp *thermalsched.Floorplan, pw map[string]float64) (float64, error) {
		return thermalsched.SteadyPeak(fp, thermal, pw)
	}
	cfg.Power = hot
	fpRes, err := thermalsched.FloorplanGA(blocks, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. thermal-aware floorplan: %s, peak %.2f °C\n\n", fpRes.Plan, fpRes.PeakTemp)

	// 2. Transient replay of a real platform schedule, cold and warm.
	// With no controller nothing throttles, so both runs keep the static
	// makespan and differ only in the initial thermal state.
	fmt.Println("2. transient replay of the thermal-aware Bm2 schedule (no DTM):")
	for _, warm := range []bool{false, true} {
		resp, err := engine.Run(ctx, thermalsched.Request{
			Flow:      thermalsched.FlowSimulate,
			Benchmark: "Bm2",
			Policy:    "thermal",
			Simulate:  &thermalsched.SimulateSpec{Controller: "none", WarmStart: warm},
		})
		if err != nil {
			log.Fatal(err)
		}
		start := "cold start"
		if warm {
			start = "warm start"
		}
		s := resp.Simulate
		fmt.Printf("   %s: makespan %.2f, peak %.2f °C\n", start, s.Makespan.Max, s.PeakTempC.Max)
	}
}
