package floorplan

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"thermalsched/internal/search"
)

// memoSize bounds the per-run expression-fingerprint memo. A GA run
// touches about PopulationSize × Generations candidates, most of them
// revisited once populations converge; the cap keeps a degenerate long
// run from holding every packing ever built.
const memoSize = 4096

// evaluator is the scoring half of RunGA's generate/evaluate split.
// Candidates are packed and thermally solved by pure functions of the
// expression, so batches can be evaluated concurrently over a bounded
// pool and merged in submission order — results are byte-identical at
// every parallelism level. A memo keyed by expression fingerprint skips
// the re-pack/re-solve for genomes revisited via elitism and convergent
// populations; all memo traffic happens serially on the caller's
// goroutine, so hit/miss accounting (and therefore Result.Evals) is
// deterministic too.
type evaluator struct {
	blocks    []Block
	leaves    [][]shape // leafShapes(blocks), shared read-only by every pack
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

	// scoreBatch's bookkeeping, kept across batches. Only the caller's
	// goroutine touches it; pool workers write just their own jobs[j].res.
	jobs   []scoreJob
	jobOf  map[string]int
	assign []int
}

// scoreJob is one unique memo miss of a batch.
type scoreJob struct {
	key  string
	expr Expression
	res  individual
}

func newEvaluator(blocks []Block, areaW, tempW float64, eval Evaluator, power map[string]float64, pool *search.Pool) *evaluator {
	var blockArea float64
	for _, b := range blocks {
		blockArea += b.Area
	}
	return &evaluator{
		blocks:    blocks,
		leaves:    leafShapes(blocks),
		areaW:     areaW,
		tempW:     tempW,
		eval:      eval,
		power:     power,
		thermal:   eval != nil && tempW > 0,
		blockArea: blockArea,
		tempScale: 1,
		pool:      pool,
		memo:      search.NewLRU[individual](memoSize),
		jobOf:     make(map[string]int),
	}
}

// fingerprint serializes an expression into a compact memo key.
func fingerprint(e Expression) string {
	// Expressions of up to 32 blocks fit the stack buffer, so the key
	// string is the only allocation.
	var buf [64]byte
	b := buf[:0]
	for _, g := range e {
		b = binary.AppendVarint(b, int64(g))
	}
	return string(b)
}

// score packs and (under the thermal objective) solves one expression.
// It checks ctx first — a packing evaluation is the search's unit of
// cancellable work — and is safe for concurrent use: everything it
// touches on the evaluator is read-only during a batch, and the plan
// it packs and hands to the Evaluator lives in a pooled packer of its
// own, so a warm score allocates nothing.
func (h *evaluator) score(ctx context.Context, e Expression) (individual, error) {
	area, peak, err := h.measure(ctx, e)
	if err != nil {
		return individual{}, err
	}
	return h.scored(e, area, peak), nil
}

// measure returns e's bounding-box area and, under the thermal
// objective, its peak temperature (NaN without one).
func (h *evaluator) measure(ctx context.Context, e Expression) (area, peak float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, fmt.Errorf("floorplan: GA cancelled after %d evaluations: %w", h.evals, err)
	}
	p := packers.Get().(*packer)
	defer packers.Put(p)
	area, err = p.pack(e, h.blocks, h.leaves, &p.plan)
	if err != nil {
		return 0, 0, err
	}
	peak = math.NaN()
	if h.thermal {
		if peak, err = h.eval(&p.plan, h.power); err != nil {
			return 0, 0, fmt.Errorf("floorplan: thermal evaluation: %w", err)
		}
	}
	return area, peak, nil
}

// scored prices a measured expression under the current
// temperature scale.
func (h *evaluator) scored(e Expression, area, peak float64) individual {
	cost := h.areaW * area / h.blockArea
	if h.thermal {
		cost += h.tempW * peak / h.tempScale
	}
	return individual{expr: e, cost: cost, area: area, peak: peak}
}

// scoreSeed evaluates the search's seed expression exactly once: the
// same packing and thermal solve both set the temperature-normalization
// scale and score the individual.
func (h *evaluator) scoreSeed(ctx context.Context, e Expression) (individual, error) {
	area, peak, err := h.measure(ctx, e)
	if err != nil {
		return individual{}, err
	}
	h.evals++
	if h.thermal && peak > 0 {
		h.tempScale = peak
	}
	ind := h.scored(e, area, peak)
	h.memo.Put(fingerprint(e), ind)
	return ind, nil
}

// plan packs e into a new floorplan the caller owns: the search keeps
// only expressions, and re-packs its winner.
func (h *evaluator) plan(e Expression) (*Floorplan, error) {
	p := packers.Get().(*packer)
	defer packers.Put(p)
	fp := New()
	if _, err := p.pack(e, h.blocks, h.leaves, fp); err != nil {
		return nil, err
	}
	return fp, nil
}

// scoreBatch scores a batch of candidates drawn serially by the caller
// and appends the individuals to dst in submission order. Memo
// lookups, duplicate folding and memo inserts run serially in
// submission order (deterministic memo state and counters); only the
// unique memo misses are evaluated, concurrently when the pool allows.
func (h *evaluator) scoreBatch(ctx context.Context, exprs []Expression, dst []individual) ([]individual, error) {
	base := len(dst)
	dst = slices.Grow(dst, len(exprs))[:base+len(exprs)]
	out := dst[base:]
	h.jobs = h.jobs[:0]
	clear(h.jobOf)
	h.assign = slices.Grow(h.assign[:0], len(exprs))[:len(exprs)]
	for i, e := range exprs {
		key := fingerprint(e)
		if ind, ok := h.memo.Get(key); ok {
			h.memoHits++
			out[i] = ind
			h.assign[i] = -1
			continue
		}
		if j, ok := h.jobOf[key]; ok {
			// Duplicate within the batch: one evaluation serves both.
			h.memoHits++
			h.assign[i] = j
			continue
		}
		h.jobOf[key] = len(h.jobs)
		h.assign[i] = len(h.jobs)
		h.jobs = append(h.jobs, scoreJob{key: key, expr: e})
		h.evals++
	}
	jobs := h.jobs
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
	for i, j := range h.assign {
		if j >= 0 {
			out[i] = jobs[j].res
		}
	}
	return dst, nil
}
