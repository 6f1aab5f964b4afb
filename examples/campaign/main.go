// Campaign: generate a family of synthetic scenarios — random task
// graphs on heterogeneous generated platforms — and fan a policy
// comparison across them on the Engine's worker pool, then drill into
// one scenario with the generate flow.
//
//	go run ./examples/campaign
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

	// A campaign is one request: N seeded scenarios × the compared
	// policies, scheduled concurrently, aggregated into win rates and
	// percentiles. The same spec always reproduces the same campaign.
	resp, err := engine.Run(ctx, thermalsched.Request{
		Flow: thermalsched.FlowCampaign,
		Campaign: &thermalsched.CampaignSpec{
			Scenarios: 12,
			Seed:      2005,
			MinTasks:  20,
			MaxTasks:  80,
			Policies:  []string{"baseline", "h3", "thermal"},
			Template: &thermalsched.ScenarioSpec{
				Platform: thermalsched.ScenarioPlatformParams{
					PEs: 6, MinSpeed: 0.6, MaxSpeed: 2.0,
				},
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(resp.Campaign)

	// Reproduce any row exactly: the generate flow serializes the
	// scenario behind a fingerprint into .tg/.lib text.
	row := resp.Campaign.Rows[0]
	gen, err := engine.Run(ctx, thermalsched.Request{
		Flow: thermalsched.FlowGenerate,
		Scenario: &thermalsched.ScenarioSpec{
			Name: row.Scenario,
			Seed: row.Seed,
			Graph: thermalsched.ScenarioGraphParams{
				Shape: row.Shape, Tasks: row.Tasks,
			},
			Platform: thermalsched.ScenarioPlatformParams{
				PEs: 6, MinSpeed: 0.6, MaxSpeed: 2.0,
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	sc := gen.Scenario
	fmt.Printf("\nscenario %s (fingerprint %s): %d tasks, %d edges, depth %d, deadline %g\n",
		sc.Name, sc.Fingerprint, sc.Tasks, sc.Edges, sc.Depth, sc.Deadline)
	if sc.Fingerprint != row.Fingerprint {
		log.Fatalf("fingerprint mismatch: campaign row %s vs generate %s", row.Fingerprint, sc.Fingerprint)
	}
	fmt.Println("fingerprint matches the campaign row — the scenario is fully reproducible")
}
