// Co-synthesis (paper Fig. 1a): synthesize a customized architecture
// for a benchmark under the power-aware and the thermal-aware flows and
// compare the selected PE sets, floorplans and temperatures — the
// comparison behind the paper's Table 2. Both runs go through one
// Engine, whose request options replace the legacy config structs.
//
//	go run ./examples/cosynthesis
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

	g, err := engine.Benchmark("Bm2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("co-synthesizing an architecture for %s (deadline %.0f)\n\n", g.Name, g.Deadline)

	for _, policy := range []thermalsched.Policy{thermalsched.MinTaskEnergy, thermalsched.ThermalAware} {
		resp, err := engine.Run(ctx, thermalsched.Request{
			Flow:                 thermalsched.FlowCoSynthesis,
			Benchmark:            "Bm2",
			Policy:               policy.String(),
			FloorplanGenerations: 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		m := resp.Metrics
		fmt.Printf("=== %s flow\n", resp.Policy)
		fmt.Printf("architecture: %d PEs, cost %.0f\n", len(resp.Architecture), m.Cost)
		for _, pe := range resp.Architecture {
			fmt.Printf("  %-5s %-9s %5.1f mm²\n", pe.Name, pe.Type, pe.AreaMM2)
		}
		fmt.Printf("makespan      %.1f (deadline %.0f)\n", m.Makespan, g.Deadline)
		fmt.Printf("total power   %.2f W\n", m.TotalPower)
		fmt.Printf("temperatures  max %.2f °C, avg %.2f °C\n\n", m.MaxTemp, m.AvgTemp)

		if policy == thermalsched.ThermalAware {
			fmt.Println("thermal-aware floorplan (.flp):")
			fmt.Print(resp.Floorplan)
		}
	}
}
