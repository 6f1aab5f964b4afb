// Quickstart: build an Engine, schedule a paper benchmark on the 4-PE
// platform with the thermal-aware ASP, and print the resulting
// temperatures.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"thermalsched"
)

func main() {
	// One Engine per process: it owns the technology library, the parsed
	// benchmarks, and the thermal-model cache shared by every run.
	engine, err := thermalsched.NewEngine()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	g, err := engine.Benchmark("Bm1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark %s: %d tasks, %d edges, deadline %.0f\n\n",
		g.Name, g.NumTasks(), g.NumEdges(), g.Deadline)

	// Compare the traditional baseline against the thermal-aware ASP.
	for _, policy := range []thermalsched.Policy{thermalsched.Baseline, thermalsched.ThermalAware} {
		resp, err := engine.Run(ctx, thermalsched.Request{
			Flow:      thermalsched.FlowPlatform,
			Benchmark: "Bm1",
			Policy:    policy.String(),
		})
		if err != nil {
			log.Fatal(err)
		}
		m := resp.Metrics
		fmt.Printf("%-10s makespan %6.1f  total %5.2f W  max %6.2f °C  avg %6.2f °C\n",
			policy, m.Makespan, m.TotalPower, m.MaxTemp, m.AvgTemp)
	}

	fmt.Println("\nThe thermal-aware ASP balances heat across the platform's PEs,")
	fmt.Println("lowering the peak and average die temperature at the same deadline.")
}
