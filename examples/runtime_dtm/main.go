// Closed-loop DTM comparison: the run-time counterpart of the paper's
// Table 3. Both the power-aware (heuristic 3) and the thermal-aware
// schedule of each paper benchmark run under the *same* dynamic thermal
// management controller, co-simulated in lockstep with the transient
// thermal model: when a block crosses the trigger the controller cuts
// its PE's power, the task executing there stretches, and the slowdown
// ripples into downstream tasks. The paper's claim — a thermally
// balanced schedule is worth real performance, not just cooler tables —
// shows up as less accumulated throttle time and fewer deadline misses.
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

	// One controller setting for everything: trigger just below the
	// benchmarks' steady-state peaks, so only thermally unbalanced
	// schedules spend much time above it.
	spec := thermalsched.SimulateSpec{
		Controller:     "toggle",
		TriggerC:       82,
		Throttle:       0.5,
		SupervisorSpec: thermalsched.SupervisorSpec{Hysteresis: 2},
		Replicas:       8,
		MinFactor:      0.85,
		Seed:           1,
	}

	fmt.Println("Closed-loop DTM comparison (toggle @ 82 °C, throttle 0.5, 8 replicas)")
	fmt.Printf("%-5s | %-13s | %12s %12s %10s\n", "bench", "policy", "throttle p50", "makespan p50", "miss rate")
	for _, bench := range []string{"Bm1", "Bm2", "Bm3", "Bm4"} {
		for _, policy := range []thermalsched.Policy{thermalsched.MinTaskEnergy, thermalsched.ThermalAware} {
			resp, err := engine.Run(context.Background(), thermalsched.Request{
				Flow:      thermalsched.FlowSimulate,
				Benchmark: bench,
				Policy:    policy.String(),
				Simulate:  &spec,
			})
			if err != nil {
				log.Fatal(err)
			}
			s := resp.Simulate
			fmt.Printf("%-5s | %-13s | %12.1f %12.1f %9.0f%%\n",
				bench, resp.Policy, s.ThrottleTime.P50, s.Makespan.P50, 100*s.DeadlineMissRate)
		}
	}
	fmt.Println("\nLower throttle time at the same controller settings is the run-time")
	fmt.Println("payoff of thermal-aware scheduling; the static tables cannot show it.")

	// Reactive vs predictive, side by side: the same thermal-aware
	// schedule under the toggle (throttle after the trigger trips) and
	// under predictive admission control (forecast the dispatch's rise
	// and delay the start instead). The trade the campaign duels
	// measure — deadline-miss rate against realized peak temperature —
	// in one table.
	admit := spec
	admit.Controller = "admit"
	admit.FairC, admit.SeriousC, admit.CriticalC = 72, 80, 88
	admit.SeriousScale, admit.CriticalScale = 0.7, 0.4
	admit.RetryAfter = 2

	fmt.Println("\nReactive toggle vs predictive admission (thermal-aware schedules)")
	fmt.Printf("%-5s | %-10s | %12s %12s %10s %10s\n",
		"bench", "controller", "peak p50 °C", "makespan p50", "miss rate", "denials")
	for _, bench := range []string{"Bm1", "Bm2", "Bm3", "Bm4"} {
		for _, cspec := range []thermalsched.SimulateSpec{spec, admit} {
			resp, err := engine.Run(context.Background(), thermalsched.Request{
				Flow:      thermalsched.FlowSimulate,
				Benchmark: bench,
				Policy:    "thermal",
				Simulate:  &cspec,
			})
			if err != nil {
				log.Fatal(err)
			}
			s := resp.Simulate
			fmt.Printf("%-5s | %-10s | %12.2f %12.1f %9.0f%% %10.1f\n",
				bench, s.Controller, s.PeakTempC.P50, s.Makespan.P50,
				100*s.DeadlineMissRate, s.MeanAdmissionDenials)
		}
	}
	fmt.Println("\nAdmission holds starts while a block is hot instead of crawling it")
	fmt.Println("at a throttle fraction — the miss-rate / peak-temperature trade the")
	fmt.Println("campaign controller duels score across whole scenario families.")
}
