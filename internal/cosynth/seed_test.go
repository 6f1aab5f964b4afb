package cosynth

import (
	"context"
	"fmt"
	"testing"

	"thermalsched/internal/floorplan"
)

// Seed 0 and seed 1 must be able to produce different floorplans — the
// point of making zero expressible. The GA is deterministic per seed,
// so two runs differing only in seed exercising distinct random streams
// should find distinct layouts for a heterogeneous block set.
func TestSeedZeroAndOneProduceDifferentFloorplans(t *testing.T) {
	var blocks []floorplan.Block
	for i, area := range []float64{16e-6, 9e-6, 25e-6, 4e-6, 12e-6, 20e-6} {
		blocks = append(blocks, floorplan.Block{
			Name: fmt.Sprintf("b%d", i), Area: area, MinAspect: 0.5, MaxAspect: 2,
		})
	}
	plan := func(seed int64) string {
		cfg := floorplan.DefaultGAConfig()
		cfg.Generations = 8
		cfg.Seed = seed
		res, err := floorplan.RunGA(context.Background(), blocks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, b := range res.Plan.Blocks() {
			out += fmt.Sprintf("%s:%g,%g,%g,%g;", b.Name, b.Rect.X, b.Rect.Y, b.Rect.W, b.Rect.H)
		}
		return out
	}
	p0, p1 := plan(0), plan(1)
	if p0 == p1 {
		t.Errorf("seeds 0 and 1 produced identical floorplans:\n%s", p0)
	}
	if again := plan(0); again != p0 {
		t.Errorf("seed 0 not deterministic:\n%s\nvs\n%s", p0, again)
	}
}
