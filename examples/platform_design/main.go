// Platform design (paper Fig. 1b): evaluate every ASP policy on the
// fixed platform of four identical PEs across all four paper
// benchmarks, reproducing the platform columns of Tables 1 and 3. Each
// request is checked once with Engine.Check, and the full 4×5 grid of
// checked requests is submitted as one Engine.RunBatch call, which fans
// the twenty runs out across a bounded worker pool while every run
// shares one cached thermal-model factorization of the platform.
//
//	go run ./examples/platform_design
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

	benchmarks := []string{"Bm1", "Bm2", "Bm3", "Bm4"}
	policies := thermalsched.Policies()

	var reqs []*thermalsched.Checked
	for _, b := range benchmarks {
		for _, p := range policies {
			req, err := engine.Check(thermalsched.Request{
				Flow:      thermalsched.FlowPlatform,
				Benchmark: b,
				Policy:    p.String(),
			})
			if err != nil {
				log.Fatal(err)
			}
			reqs = append(reqs, req)
		}
	}
	resps, err := engine.RunBatch(context.Background(), reqs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Platform-based design flow: four identical PEs, fixed floorplan.")
	fmt.Printf("%-16s %-12s %8s %9s %9s %10s\n",
		"benchmark", "policy", "TotPow", "MaxTemp", "AvgTemp", "makespan")

	i := 0
	for _, b := range benchmarks {
		g, err := engine.Benchmark(b)
		if err != nil {
			log.Fatal(err)
		}
		var baseMax float64
		for _, p := range policies {
			resp := resps[i]
			i++
			if resp.Error != "" {
				log.Fatalf("%s/%s: %s", b, p, resp.Error)
			}
			m := resp.Metrics
			note := ""
			if p == thermalsched.Baseline {
				baseMax = m.MaxTemp
			} else if d := baseMax - m.MaxTemp; d > 0 {
				note = fmt.Sprintf("  (-%.1f °C vs baseline)", d)
			}
			if !m.Feasible {
				note += "  MISSES DEADLINE"
			}
			fmt.Printf("%-16s %-12s %8.2f %9.2f %9.2f %10.1f%s\n",
				fmt.Sprintf("%s/%d/%d/%.0f", g.Name, g.NumTasks(), g.NumEdges(), g.Deadline),
				resp.Policy, m.TotalPower, m.MaxTemp, m.AvgTemp, m.Makespan, note)
		}
		fmt.Println()
	}

	hits, misses, _ := engine.ModelCacheStats()
	fmt.Printf("thermal-model cache: %d hits, %d misses across %d runs\n",
		hits, misses, len(reqs))
}
