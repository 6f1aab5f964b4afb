package floorplan

import (
	"context"
	"math"
	"testing"
)

// areaEval is a fake thermal evaluator that penalizes tall bounding boxes,
// so tests can verify the thermal term steers the search without pulling
// in the real thermal model.
func tallPenaltyEval(fp *Floorplan, _ map[string]float64) (float64, error) {
	bb := fp.BoundingBox()
	return 40 + 10*bb.H/bb.W, nil
}

func TestRunGAFindsTightPacking(t *testing.T) {
	blocks := flexBlocks(6, 1e-6)
	cfg := DefaultGAConfig()
	cfg.Generations = 40
	res, err := RunGA(context.Background(), blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("GA produced invalid plan: %v", err)
	}
	if res.Plan.NumBlocks() != 6 {
		t.Fatalf("plan has %d blocks, want 6", res.Plan.NumBlocks())
	}
	if ds := res.Plan.Deadspace(); ds > 0.25 {
		t.Errorf("GA deadspace = %.1f%%, want < 25%%", 100*ds)
	}
	if res.Evals == 0 {
		t.Error("Evals not counted")
	}
	if !math.IsNaN(res.PeakTemp) {
		t.Error("PeakTemp should be NaN without an evaluator")
	}
}

func TestRunGADeterministicForSeed(t *testing.T) {
	blocks := flexBlocks(5, 1e-6)
	cfg := DefaultGAConfig()
	cfg.Generations = 10
	a, err := RunGA(context.Background(), blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGA(context.Background(), blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Area != b.Area {
		t.Errorf("same seed gave different results: %v vs %v", a.Cost, b.Cost)
	}
}

func TestRunGAThermalObjectiveSteersSearch(t *testing.T) {
	blocks := flexBlocks(6, 1e-6)
	areaOnly := DefaultGAConfig()
	areaOnly.Generations = 30
	areaOnly.TempWeight = 0

	thermal := DefaultGAConfig()
	thermal.Generations = 30
	thermal.Eval = tallPenaltyEval
	thermal.TempWeight = 5
	thermal.Power = map[string]float64{}

	resA, err := RunGA(context.Background(), blocks, areaOnly)
	if err != nil {
		t.Fatal(err)
	}
	resT, err := RunGA(context.Background(), blocks, thermal)
	if err != nil {
		t.Fatal(err)
	}
	// The thermal run must actually evaluate temperatures.
	if math.IsNaN(resT.PeakTemp) {
		t.Fatal("thermal GA did not record peak temperature")
	}
	// The thermally-steered plan should be no taller (relative to width)
	// than the area-only plan, since the evaluator punishes tall boxes.
	arA := resA.Plan.BoundingBox().H / resA.Plan.BoundingBox().W
	arT := resT.Plan.BoundingBox().H / resT.Plan.BoundingBox().W
	if arT > arA+0.5 {
		t.Errorf("thermal objective ignored: aspect %v (thermal) vs %v (area only)", arT, arA)
	}
}

func TestRunGAErrors(t *testing.T) {
	if _, err := RunGA(context.Background(), nil, DefaultGAConfig()); err == nil {
		t.Error("empty block list accepted")
	}
	cfg := DefaultGAConfig()
	cfg.PopulationSize = 1
	if _, err := RunGA(context.Background(), flexBlocks(3, 1e-6), cfg); err == nil {
		t.Error("tiny population accepted")
	}
	if _, err := RunGA(context.Background(), []Block{{Name: "x", Area: -1, MinAspect: 1, MaxAspect: 1}}, DefaultGAConfig()); err == nil {
		t.Error("invalid block accepted")
	}
}

func TestRunGASingleBlock(t *testing.T) {
	res, err := RunGA(context.Background(), flexBlocks(1, 1e-6), DefaultGAConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.NumBlocks() != 1 {
		t.Error("single-block GA failed")
	}
}

func TestGrid(t *testing.T) {
	fp, err := Grid("pe", 4, 16e-6)
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d", fp.NumBlocks())
	}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2x2 grid of 4mm squares → 8mm square bounding box, zero deadspace.
	bb := fp.BoundingBox()
	if math.Abs(bb.W-0.008) > 1e-9 || math.Abs(bb.H-0.008) > 1e-9 {
		t.Errorf("bounding box = %v", bb)
	}
	if fp.Deadspace() > 1e-9 {
		t.Errorf("grid deadspace = %v", fp.Deadspace())
	}
	// pe0 and pe1 must abut for lateral heat flow.
	if adj := fp.Adjacency(nil, 1e-9); len(adj) == 0 || adj[0].I != 0 || adj[0].J != 1 {
		t.Errorf("pe0 and pe1 should be adjacent: %v", adj)
	}
}

func TestGridNonSquareCount(t *testing.T) {
	fp, err := Grid("pe", 3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumBlocks() != 3 || fp.Validate() != nil {
		t.Error("3-block grid invalid")
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := Grid("pe", 0, 1e-6); err == nil {
		t.Error("zero-count grid accepted")
	}
	if _, err := Grid("pe", 4, 0); err == nil {
		t.Error("zero-area grid accepted")
	}
}

func TestRow(t *testing.T) {
	fp, err := Row("pe", 3, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	bb := fp.BoundingBox()
	if math.Abs(bb.W-0.006) > 1e-9 || math.Abs(bb.H-0.002) > 1e-9 {
		t.Errorf("row bounding box = %v", bb)
	}
	if _, err := Row("pe", -1, 1); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := Row("pe", 2, -1); err == nil {
		t.Error("negative area accepted")
	}
}
