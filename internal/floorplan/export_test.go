package floorplan

import "context"

// RaceEnabled exposes raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// NewScorer exposes the GA's candidate scoring to the external tests,
// which can import the thermal model: the returned function packs e in
// pooled scratch, hands the plan to eval, and returns the candidate's
// cost.
func NewScorer(blocks []Block, eval Evaluator, power map[string]float64) func(e Expression) (float64, error) {
	h := newEvaluator(blocks, 1, 1, eval, power, nil)
	return func(e Expression) (float64, error) {
		ind, err := h.score(context.Background(), e)
		return ind.cost, err
	}
}
