package floorplan_test

import (
	"testing"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
)

// Scoring a GA candidate under the thermal objective, the way
// co-synthesis scores one (four PE blocks, hotspot.SteadyPeak as the
// Evaluator), packs and solves in pooled scratch: once warm it
// allocates nothing.
func TestScoreSteadyPeakAllocs(t *testing.T) {
	if floorplan.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	blocks := []floorplan.Block{
		{Name: "pe0", Area: 16e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "pe1", Area: 9e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "pe2", Area: 25e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "pe3", Area: 12e-6, MinAspect: 0.5, MaxAspect: 2},
	}
	power := map[string]float64{"pe0": 4, "pe1": 1.5, "pe2": 6, "pe3": 2.5}
	cfg := hotspot.DefaultConfig()
	score := floorplan.NewScorer(blocks, func(fp *floorplan.Floorplan, pw map[string]float64) (float64, error) {
		return hotspot.SteadyPeak(fp, cfg, pw)
	}, power)
	exprs := []floorplan.Expression{
		floorplan.InitialExpression(len(blocks)),
		{0, 1, floorplan.OpH, 2, 3, floorplan.OpV, floorplan.OpV},
		{3, 1, 2, floorplan.OpV, 0, floorplan.OpH, floorplan.OpH},
	}
	for _, e := range exprs {
		if _, err := score(e); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	got := testing.AllocsPerRun(30, func() {
		if _, err := score(exprs[k%len(exprs)]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if got != 0 {
		t.Errorf("a warm pack plus SteadyPeak makes %v allocations, want 0", got)
	}
}
