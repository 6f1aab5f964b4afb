package floorplan

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"thermalsched/internal/search"
)

// memoSize bounds the per-run expression-fingerprint memo. A search
// touches PopulationSize × Generations (GA) or MovesPerT × sweeps (SA)
// candidates, most of them revisited once populations converge; the cap
// keeps a degenerate long run from holding every packing ever built.
const memoSize = 4096

// evaluator is the scoring half of the generate/evaluate split shared
// by RunGA and RunSA. Candidates are packed and thermally solved
// by pure functions of the expression, so batches can be evaluated
// concurrently over a bounded pool and merged in submission order —
// results are byte-identical at every parallelism level. A memo keyed
// by expression fingerprint skips the re-pack/re-solve for genomes
// revisited via elitism and convergent populations; all memo traffic
// happens serially on the caller's goroutine, so hit/miss accounting
// (and therefore Result.Evals) is deterministic too.
type evaluator struct {
	name      string // "GA" or "SA", for error messages
	blocks    []Block
	areaW     float64
	tempW     float64
	eval      Evaluator
	power     map[string]float64
	thermal   bool
	blockArea float64
	tempScale float64
	pool      *search.Pool
	memo      *search.LRU[individual]
	evals     int // packings actually evaluated (memo misses)
	memoHits  int // candidates answered from the memo
}

// searchPool resolves a config's pool: an explicitly shared pool wins
// (the co-synthesis fan-out passes its own so nested searches never
// oversubscribe), otherwise one is sized from Parallelism.
func searchPool(shared *search.Pool, parallelism int) *search.Pool {
	if shared != nil {
		return shared
	}
	return search.NewPool(parallelism)
}

func newEvaluator(name string, blocks []Block, areaW, tempW float64, eval Evaluator, power map[string]float64, pool *search.Pool) *evaluator {
	var blockArea float64
	for _, b := range blocks {
		blockArea += b.Area
	}
	return &evaluator{
		name:      name,
		blocks:    blocks,
		areaW:     areaW,
		tempW:     tempW,
		eval:      eval,
		power:     power,
		thermal:   eval != nil && tempW > 0,
		blockArea: blockArea,
		tempScale: 1,
		pool:      pool,
		memo:      search.NewLRU[individual](memoSize),
	}
}

// fingerprint serializes an expression into a compact memo key.
func fingerprint(e Expression) string {
	b := make([]byte, 0, 2*len(e))
	for _, g := range e {
		b = binary.AppendVarint(b, int64(g))
	}
	return string(b)
}

// score packs and (under the thermal objective) solves one expression.
// It checks ctx first — a packing evaluation is the search's unit of
// cancellable work — and is safe for concurrent use: everything it
// touches on the evaluator is read-only during a batch.
func (h *evaluator) score(ctx context.Context, e Expression) (individual, error) {
	if err := ctx.Err(); err != nil {
		return individual{}, fmt.Errorf("floorplan: %s cancelled after %d evaluations: %w", h.name, h.evals, err)
	}
	plan, area, err := Pack(e, h.blocks)
	if err != nil {
		return individual{}, err
	}
	ind := individual{expr: e, plan: plan, area: area, peak: math.NaN()}
	cost := h.areaW * area / h.blockArea
	if h.thermal {
		peak, err := h.eval(plan, h.power)
		if err != nil {
			return individual{}, fmt.Errorf("floorplan: thermal evaluation: %w", err)
		}
		ind.peak = peak
		cost += h.tempW * peak / h.tempScale
	}
	ind.cost = cost
	return ind, nil
}

// scoreSeed evaluates the search's seed expression exactly once: the
// same packing and thermal solve both set the temperature-normalization
// scale and score the individual (the serial path used to pay for the
// scale-setting solve twice, and never counted it in Result.Evals).
func (h *evaluator) scoreSeed(ctx context.Context, e Expression) (individual, error) {
	if err := ctx.Err(); err != nil {
		return individual{}, fmt.Errorf("floorplan: %s cancelled after %d evaluations: %w", h.name, h.evals, err)
	}
	plan, area, err := Pack(e, h.blocks)
	if err != nil {
		return individual{}, err
	}
	h.evals++
	ind := individual{expr: e, plan: plan, area: area, peak: math.NaN()}
	cost := h.areaW * area / h.blockArea
	if h.thermal {
		peak, err := h.eval(plan, h.power)
		if err != nil {
			return individual{}, fmt.Errorf("floorplan: thermal evaluation: %w", err)
		}
		ind.peak = peak
		if peak > 0 {
			h.tempScale = peak
		}
		cost += h.tempW * peak / h.tempScale
	}
	ind.cost = cost
	h.memo.Put(fingerprint(e), ind)
	return ind, nil
}

// scoreBatch scores a batch of candidates drawn serially by the caller.
// Memo lookups, duplicate folding and memo inserts run serially in
// submission order (deterministic memo state and counters); only the
// unique memo misses are evaluated, concurrently when the pool allows.
func (h *evaluator) scoreBatch(ctx context.Context, exprs []Expression) ([]individual, error) {
	out := make([]individual, len(exprs))
	type job struct {
		key  string
		expr Expression
		res  individual
	}
	var jobs []job
	jobOf := make(map[string]int, len(exprs))
	assign := make([]int, len(exprs))
	for i, e := range exprs {
		key := fingerprint(e)
		if ind, ok := h.memo.Get(key); ok {
			h.memoHits++
			out[i] = ind
			assign[i] = -1
			continue
		}
		if j, ok := jobOf[key]; ok {
			// Duplicate within the batch: one evaluation serves both.
			h.memoHits++
			assign[i] = j
			continue
		}
		jobOf[key] = len(jobs)
		assign[i] = len(jobs)
		jobs = append(jobs, job{key: key, expr: e})
		h.evals++
	}
	err := h.pool.Map(len(jobs), func(j int) error {
		ind, err := h.score(ctx, jobs[j].expr)
		if err != nil {
			return err
		}
		jobs[j].res = ind
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j := range jobs {
		h.memo.Put(jobs[j].key, jobs[j].res)
	}
	for i := range exprs {
		if assign[i] >= 0 {
			out[i] = jobs[assign[i]].res
		}
	}
	return out, nil
}
