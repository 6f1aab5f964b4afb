package floorplan

import (
	"context"
	"math/rand"
	"testing"
)

// missExprs returns count distinct random expressions over n blocks.
func missExprs(n, count int, rng *rand.Rand) []Expression {
	seen := map[string]bool{}
	var out []Expression
	for len(out) < count {
		e := randomExpression(n, rng)
		if key := fingerprint(e); !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	return out
}

// A warm evaluator scoring one memo-miss candidate under the area-only
// objective (the co-synthesis shape: four PE blocks) allocates its memo
// entry, not a packing, per-batch bookkeeping or leaf shape curves.
func TestScoreBatchMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	blocks := []Block{
		{Name: "pe0", Area: 16e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "pe1", Area: 9e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "pe2", Area: 25e-6, MinAspect: 0.5, MaxAspect: 2},
		{Name: "pe3", Area: 12e-6, MinAspect: 0.5, MaxAspect: 2},
	}
	const runs = 20
	exprs := missExprs(len(blocks), runs+2, rand.New(rand.NewSource(5)))
	h := newEvaluator(blocks, 1, 0, nil, nil, nil)
	dst, err := h.scoreBatch(context.Background(), exprs[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	got := testing.AllocsPerRun(runs, func() {
		if dst, err = h.scoreBatch(context.Background(), exprs[next:next+1], dst[:0]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if h.evals != next {
		t.Fatalf("%d evaluations for %d distinct candidates", h.evals, next)
	}
	// 4 allocations on Go 1.24: the memo key and entry, the pool
	// closure. The bound leaves room for toolchain drift but not for a
	// floorplan per packed candidate (20, with its block index map),
	// rebuilding the leaf curves on every pack or making fresh batch
	// bookkeeping.
	const bound = 6
	if got > bound {
		t.Errorf("scoring one memo miss makes %v allocations, want at most %d", got, bound)
	}
}
