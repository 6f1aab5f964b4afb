package floorplan

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"thermalsched/internal/search"
)

// SAConfig parameterizes the simulated-annealing floorplanner, the
// ablation baseline against the GA (experiment A1 in DESIGN.md).
type SAConfig struct {
	InitialTemp float64 // annealing temperature (dimensionless cost units)
	CoolingRate float64 // geometric cooling factor per sweep, e.g. 0.95
	MovesPerT   int     // proposed moves per temperature level
	MinTemp     float64 // stop when temperature falls below this

	AreaWeight float64
	TempWeight float64
	Eval       Evaluator
	Power      map[string]float64

	Seed int64

	// Pool bounds concurrent packing/thermal evaluations; nil means
	// serial. Proposals are drawn serially in speculative batches (see
	// saSpecBatch), evaluated concurrently, and accepted in submission
	// order, so the Result is byte-identical for every pool size.
	Pool *search.Pool
}

// saSpecBatch is the speculative-proposal batch size: each batch's
// genomes and acceptance uniforms are drawn serially from the current
// state, evaluated concurrently, and scanned in order; the first
// accepted move commits and discards the rest of the batch (their
// proposals were speculated from the superseded state). The size is a
// fixed constant — never the parallelism level — so the annealing
// trajectory is identical at every parallelism setting. Rejection
// dominates once the temperature drops, so little speculation is
// wasted where the search spends most of its budget; discarded
// packings stay in the memo and often pay for themselves later.
const saSpecBatch = 8

// DefaultSAConfig returns annealing parameters comparable in evaluation
// budget to DefaultGAConfig.
func DefaultSAConfig() SAConfig {
	return SAConfig{
		InitialTemp: 1.0,
		CoolingRate: 0.92,
		MovesPerT:   40,
		MinTemp:     1e-3,
		AreaWeight:  1.0,
		TempWeight:  1.0,
		Seed:        1,
	}
}

// RunSA searches for a slicing floorplan with simulated annealing over
// the same move set the GA mutates with, under RunGA's per-evaluation
// cancellation contract: ctx is checked before every packing
// evaluation (the unit of work — a Stockmeyer pack plus, under a
// thermal objective, a full model build and solve) and a ctx-wrapping
// error is returned promptly after cancellation.
func RunSA(ctx context.Context, blocks []Block, cfg SAConfig) (*Result, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("floorplan: no blocks to place")
	}
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.CoolingRate <= 0 || cfg.CoolingRate >= 1 {
		return nil, fmt.Errorf("floorplan: cooling rate %g out of (0,1)", cfg.CoolingRate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := newEvaluator("SA", blocks, cfg.AreaWeight, cfg.TempWeight, cfg.Eval, cfg.Power, cfg.Pool)

	// Seed state: one packing+solve both establishes the temperature
	// scale and scores it.
	cur := InitialExpression(len(blocks))
	curInd, err := h.scoreSeed(ctx, cur)
	if err != nil {
		return nil, err
	}
	curCost := curInd.cost
	best := &Result{Plan: curInd.plan, Area: curInd.area, PeakTemp: curInd.peak, Cost: curInd.cost}

	cands := make([]Expression, 0, saSpecBatch)
	uniforms := make([]float64, 0, saSpecBatch)
	for temp := cfg.InitialTemp; temp > cfg.MinTemp; temp *= cfg.CoolingRate {
		for m := 0; m < cfg.MovesPerT; {
			n := saSpecBatch
			if left := cfg.MovesPerT - m; n > left {
				n = left
			}
			// Draw the whole batch — genomes and acceptance uniforms —
			// serially from the current state before evaluating anything.
			cands, uniforms = cands[:0], uniforms[:0]
			for k := 0; k < n; k++ {
				cands = append(cands, mutateExpr(cloneExpr(cur), rng, 1))
				uniforms = append(uniforms, rng.Float64())
			}
			inds, err := h.scoreBatch(ctx, cands)
			if err != nil {
				return nil, err
			}
			m += n
			for k := range inds {
				d := inds[k].cost - curCost
				if d <= 0 || uniforms[k] < math.Exp(-d/temp) {
					cur, curCost = inds[k].expr, inds[k].cost
					if inds[k].cost < best.Cost {
						best = &Result{Plan: inds[k].plan, Area: inds[k].area, PeakTemp: inds[k].peak, Cost: inds[k].cost}
					}
					// The rest of the batch was speculated from the
					// superseded state; discard it.
					break
				}
			}
		}
	}
	best.Evals = h.evals
	best.MemoHits = h.memoHits
	return best, nil
}
