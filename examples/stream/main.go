// Stream: dispatch an online workload — periodic sources plus a
// bursty aperiodic Poisson stream — over the closed-loop thermal
// co-simulator, comparing the thermal-greedy online policy against
// FIFO, and measure both against the clairvoyant offline bound (the
// price of onlineness).
//
//	go run ./examples/stream
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

	// The stream spec is pure data: the same seed always generates the
	// same arrival trace and platform, so results reproduce exactly.
	spec := thermalsched.StreamSpec{
		Seed: 2,
		Arrivals: thermalsched.StreamArrivalParams{
			Horizon:   600,  // arrivals stop here; execution may run past it
			Sources:   3,    // strictly periodic sources
			Rate:      0.08, // aperiodic Poisson bursts per time unit
			BurstMean: 3,    // mean geometric burst size
		},
		MinFactor: 0.7, // realized durations in [0.7, 1] × WCET
		Replicas:  3,   // Monte-Carlo over dispatch seeds SimSeed+i
	}

	// The online policies place jobs with past knowledge only: the
	// current temperatures, the running set, and the jobs that already
	// arrived — never future arrivals or realized durations.
	for _, policy := range []string{
		thermalsched.StreamPolicyFIFO,
		thermalsched.StreamPolicyGreedy,
	} {
		req := thermalsched.Request{Flow: thermalsched.FlowStream, Stream: &spec, Policy: policy}
		resp, err := engine.Run(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		s := resp.Stream
		fmt.Printf("%-8s %d jobs (%d periodic, %d aperiodic) on %d PEs\n",
			policy, s.Jobs, s.PeriodicJobs, s.AperiodicJobs, s.PEs)
		fmt.Printf("  miss rate %.3f   peak %.1f°C   makespan %.1f\n",
			s.MissRate.Mean, s.PeakTempC.Mean, s.Makespan.Mean)
		// Price of onlineness: realized makespan over the clairvoyant
		// lower bound for the same realized trace — ≥ 1 by construction;
		// the excess is what not knowing the future cost the policy.
		fmt.Printf("  price of onlineness %.3f (clairvoyant bound %.1f)\n\n",
			s.Price.Mean, s.OfflineBound.Mean)
	}

	// Campaigns duel online policies across a seeded family of stream
	// workloads, with the same reproducibility contract as offline
	// campaigns.
	resp, err := engine.Run(ctx, thermalsched.Request{
		Flow: thermalsched.FlowCampaign,
		Campaign: &thermalsched.CampaignSpec{
			Scenarios: 6,
			Seed:      7,
			Stream:    &thermalsched.StreamSpec{MinFactor: 0.8},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(resp.Campaign)
}
