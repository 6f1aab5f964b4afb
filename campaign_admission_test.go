package thermalsched_test

import (
	"context"
	"testing"

	"thermalsched"
)

// admissionDuelFamilies are the four scenario families the predictive
// admission controller is measured on: disjoint-seed batches spanning
// the graph-size axis, run hot enough (TimeScale 0.05 against the
// default 80 °C toggle trigger) that reactive throttling visibly
// inflates realized makespans past the deadline. Every family runs the
// same shared SimulateSpec — toggle with its platform defaults, admit
// with its ladder one band below the trigger — so the duel measures
// the control strategy, not per-family knob tuning.
var admissionDuelFamilies = []struct {
	name     string
	seed     int64
	minTasks int
	maxTasks int
	shape    string // "" draws a mix of shapes per scenario
}{
	{"compact", 11, 14, 24, thermalsched.ScenarioShapeLayered},
	{"standard-a", 2, 20, 40, ""},
	{"standard-b", 3, 20, 40, ""},
	{"wide", 10, 36, 50, thermalsched.ScenarioShapeLayered},
}

// admissionDuelSpec is the shared controller configuration of the
// duel: the reactive baseline keeps its defaults (80 °C trigger, 2 °C
// hysteresis, 0.5 throttle); the predictive controller forecasts with
// the influence oracle and refuses starts that would cross its
// serious threshold, with a graduated safety net behind it.
func admissionDuelSpec() *thermalsched.SimulateSpec {
	return &thermalsched.SimulateSpec{
		Replicas:  4,
		MinFactor: 0.7,
		TimeScale: 0.05,
		TriggerC:  80,
		SupervisorSpec: thermalsched.SupervisorSpec{
			FairC: 70, SeriousC: 78, CriticalC: 86,
			SeriousScale: 0.7, CriticalScale: 0.4,
			RetryAfter: 2,
		},
	}
}

// The tentpole acceptance claim: predictive admission control beats
// the reactive toggle baseline on deadline-miss rate at equal-or-lower
// realized peak temperature on at least 3 of 4 scenario families, and
// never loses a miss-rate duel on any family. The campaign flow is
// deterministic end to end (seeded scenarios, seeded replicas,
// parallelism-independent accumulation), so the asserted margins are
// exact reruns, not statistical luck.
func TestAdmissionBeatsToggleAcrossScenarioFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("admission duel campaign suite skipped in -short mode")
	}
	engine, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}

	familiesWon := 0
	for _, fam := range admissionDuelFamilies {
		req := thermalsched.Request{Flow: thermalsched.FlowCampaign,
			Campaign: &thermalsched.CampaignSpec{
				Scenarios: 6,
				Seed:      fam.seed,
				MinTasks:  fam.minTasks,
				MaxTasks:  fam.maxTasks,
				Template: &thermalsched.ScenarioSpec{
					Graph: thermalsched.ScenarioGraphParams{
						Shape: fam.shape, Tightness: 1.1,
					},
					Platform: thermalsched.ScenarioPlatformParams{PEs: 6},
				},
				Controllers: []string{"toggle", "admit"},
				Simulate:    admissionDuelSpec(),
			}}
		resp, err := engine.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("family %s: %v", fam.name, err)
		}
		r := resp.Campaign
		if r == nil {
			t.Fatalf("family %s: no campaign report", fam.name)
		}
		if r.Reference != "admit" {
			t.Fatalf("family %s: duel reference %q, want admit", fam.name, r.Reference)
		}
		var duel *thermalsched.CampaignDuel
		for i := range r.Duels {
			if r.Duels[i].Opponent == "toggle" {
				duel = &r.Duels[i]
			}
		}
		if duel == nil {
			t.Fatalf("family %s: no toggle duel in report", fam.name)
		}
		if duel.Compared != 6 {
			t.Fatalf("family %s: %d of 6 scenarios compared — a controller run failed",
				fam.name, duel.Compared)
		}

		missLosses := duel.Compared - duel.MissRateWins - duel.MissRateTies
		if missLosses > 0 {
			t.Errorf("family %s: admit lost %d miss-rate duels to toggle", fam.name, missLosses)
		}
		wonMiss := duel.MissRateWins > 0 && duel.MeanMissRed > 0
		wonPeak := duel.MeanPeakRedC >= 0
		t.Logf("family %-10s missWins %d/%d meanMissRed %+.3f peakWins %d meanPeakRed %+.2f°C",
			fam.name, duel.MissRateWins, duel.Compared, duel.MeanMissRed,
			duel.PeakTempWins, duel.MeanPeakRedC)
		if wonMiss && wonPeak {
			familiesWon++
		}
	}
	if familiesWon < 3 {
		t.Errorf("admit beat toggle on miss rate at equal-or-lower peak on %d of %d families, want >= 3",
			familiesWon, len(admissionDuelFamilies))
	}
}
