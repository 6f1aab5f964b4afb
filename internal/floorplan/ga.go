package floorplan

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"thermalsched/internal/search"
)

// Evaluator scores a candidate floorplan for thermal quality. The
// co-synthesis layer wires this to the HotSpot-style model: given the
// plan and a per-block power map (watts), return the peak steady-state
// temperature. A nil Evaluator makes the search purely area-driven.
// fp is scratch the search packs the next candidate into: it is valid
// only during the call, and the Evaluator must neither modify nor keep
// it.
type Evaluator func(fp *Floorplan, power map[string]float64) (peakTemp float64, err error)

// GAConfig parameterizes the genetic algorithm floorplanner.
// The zero value is not usable; start from DefaultGAConfig.
type GAConfig struct {
	PopulationSize int
	Generations    int
	CrossoverRate  float64
	MutationRate   float64
	TournamentK    int // tournament selection size
	Elitism        int // how many best individuals survive unchanged

	// AreaWeight and TempWeight combine the normalized objectives into
	// one fitness value. Thermal evaluation is skipped when TempWeight
	// is 0 or Eval is nil.
	AreaWeight float64
	TempWeight float64

	Eval Evaluator
	// Power gives per-block dissipation (W) for the Evaluator.
	Power map[string]float64

	Seed int64

	// Pool bounds concurrent packing/thermal evaluations; nil means
	// serial. Each generation's candidates are drawn serially from the
	// seeded RNG (the stream is byte-identical to the serial search),
	// evaluated concurrently, and merged in submission order, so the
	// Result is byte-identical for every pool size. An enclosing search
	// passes its own pool (the co-synthesis architecture fan-out does)
	// so nested searches never oversubscribe.
	Pool *search.Pool
}

// DefaultGAConfig returns the configuration used throughout the
// reproduction: a modest population sized for floorplans of 2–30 blocks.
func DefaultGAConfig() GAConfig {
	return GAConfig{
		PopulationSize: 40,
		Generations:    60,
		CrossoverRate:  0.8,
		MutationRate:   0.3,
		TournamentK:    3,
		Elitism:        2,
		AreaWeight:     1.0,
		TempWeight:     1.0,
		Seed:           1,
	}
}

// Result is the outcome of a floorplanning run.
type Result struct {
	Plan     *Floorplan
	Area     float64 // bounding-box area, m²
	PeakTemp float64 // °C; NaN when no thermal evaluation was requested
	Cost     float64 // final combined fitness (lower is better)
	Evals    int     // packings actually evaluated (memo misses)
	// MemoHits counts candidates answered from the expression-
	// fingerprint memo instead of a fresh pack+solve; Evals + MemoHits
	// is the number of candidates the search scored. Both are
	// deterministic for a seed, at every parallelism level.
	MemoHits int
}

// individual is one scored genome. It keeps no floorplan: RunGA
// re-packs the winner's expression, which gives the plan scoring saw.
type individual struct {
	expr Expression
	cost float64
	area float64
	peak float64
}

// gaRands recycles the search's random sources: seeding one anew is
// exactly seeding a new one, and saves its 4.9 KB state per run.
var gaRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// RunGA searches for a slicing floorplan of blocks minimizing the
// weighted area/temperature objective. The search checks ctx before
// every packing evaluation (the unit of work — a Stockmeyer pack plus,
// under a thermal objective, a full model build and solve) and returns
// a ctx-wrapping error promptly after cancellation.
//
// The search is split into serial candidate generation and (optionally
// concurrent) evaluation: each generation's genomes are drawn from the
// seeded RNG up front, scored over cfg.Pool's workers through a
// memoizing evaluator, and merged in submission order — the Result is
// byte-identical for every parallelism level.
func RunGA(ctx context.Context, blocks []Block, cfg GAConfig) (*Result, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("floorplan: no blocks to place")
	}
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.PopulationSize < 2 {
		return nil, fmt.Errorf("floorplan: population size %d too small", cfg.PopulationSize)
	}
	if cfg.TournamentK < 1 {
		cfg.TournamentK = 2
	}
	rng := gaRands.Get().(*rand.Rand)
	defer gaRands.Put(rng)
	rng.Seed(cfg.Seed)
	// Normalization scales so area and temperature contribute comparably:
	// area relative to the sum of block areas, temperature relative to the
	// seed plan's peak (set by scoreSeed).
	h := newEvaluator(blocks, cfg.AreaWeight, cfg.TempWeight, cfg.Eval, cfg.Power, cfg.Pool)

	// Seed individual: one packing+solve both establishes the
	// temperature scale and scores it.
	seedExpr := InitialExpression(len(blocks))
	first, err := h.scoreSeed(ctx, seedExpr)
	if err != nil {
		return nil, err
	}

	// Initial population: the seed plus random mutations of it, drawn
	// serially and scored as one batch.
	mutants := make([]Expression, 0, cfg.PopulationSize-1)
	for len(mutants) < cfg.PopulationSize-1 {
		mutants = append(mutants, mutateExpr(cloneExpr(seedExpr), rng, 1+rng.Intn(4)))
	}
	pop := make([]individual, 0, cfg.PopulationSize)
	pop = append(pop, first)
	pop, err = h.scoreBatch(ctx, mutants, pop)
	if err != nil {
		return nil, err
	}

	// Each generation is built in next, then the two population buffers
	// swap: the old generation is still read while its successor fills.
	// The individuals keep the mutants' genomes, not the slice, so it
	// holds each generation's children.
	next := make([]individual, 0, cfg.PopulationSize)
	children := mutants
	best := bestOf(pop)
	for gen := 0; gen < cfg.Generations; gen++ {
		sort.Slice(pop, func(i, j int) bool { return pop[i].cost < pop[j].cost })
		next = next[:0]
		for i := 0; i < cfg.Elitism && i < len(pop); i++ {
			next = append(next, pop[i])
		}
		// Selection and variation read only the sorted population's
		// costs, all known before the generation starts, so every
		// child genome is drawn before any child is evaluated.
		children = children[:0]
		for len(next)+len(children) < cfg.PopulationSize {
			a := tournament(pop, cfg.TournamentK, rng)
			var child Expression
			if rng.Float64() < cfg.CrossoverRate {
				b := tournament(pop, cfg.TournamentK, rng)
				child = crossover(a.expr, b.expr, len(blocks), rng)
			} else {
				child = cloneExpr(a.expr)
			}
			if rng.Float64() < cfg.MutationRate {
				child = mutateExpr(child, rng, 1+rng.Intn(3))
			}
			children = append(children, child)
		}
		if next, err = h.scoreBatch(ctx, children, next); err != nil {
			return nil, err
		}
		pop, next = next, pop
		if b := bestOf(pop); b.cost < best.cost {
			best = b
		}
	}
	plan, err := h.plan(best.expr)
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan:     plan,
		Area:     best.area,
		PeakTemp: best.peak,
		Cost:     best.cost,
		Evals:    h.evals,
		MemoHits: h.memoHits,
	}, nil
}

func bestOf(pop []individual) individual {
	b := pop[0]
	for _, ind := range pop[1:] {
		if ind.cost < b.cost {
			b = ind
		}
	}
	return b
}

func tournament(pop []individual, k int, rng *rand.Rand) individual {
	b := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.cost < b.cost {
			b = c
		}
	}
	return b
}

func cloneExpr(e Expression) Expression {
	c := make(Expression, len(e))
	copy(c, e)
	return c
}

// mutateExpr applies n random Wong-Liu style moves, keeping the
// expression valid:
//
//	M1: swap two operands.
//	M2: complement a cut operator (H <-> V).
//	M3: swap an adjacent operand/operator pair when the ballot property
//	    allows it.
func mutateExpr(e Expression, rng *rand.Rand, n int) Expression {
	if len(e) < 3 {
		return e // a single block admits no moves
	}
	for k := 0; k < n; k++ {
		switch rng.Intn(3) {
		case 0:
			i, j := randOperand(e, rng), randOperand(e, rng)
			e[i], e[j] = e[j], e[i]
		case 1:
			i := randOperator(e, rng)
			if i >= 0 {
				if e[i] == OpH {
					e[i] = OpV
				} else {
					e[i] = OpH
				}
			}
		case 2:
			// Try a few random adjacent swaps until one preserves validity.
			// A swap keeps the operands a permutation, so only the
			// ballot property can break.
			for try := 0; try < 8; try++ {
				i := rng.Intn(len(e) - 1)
				if e[i].IsOperator() == e[i+1].IsOperator() {
					continue
				}
				e[i], e[i+1] = e[i+1], e[i]
				if ballot(e) {
					break
				}
				e[i], e[i+1] = e[i+1], e[i] // undo
			}
		}
	}
	return e
}

// ballot reports whether every prefix of e holds more operands than
// operators, the part of validExpression an operand/operator swap can
// break.
func ballot(e Expression) bool {
	depth := 0
	for _, g := range e {
		if !g.IsOperator() {
			depth++
		} else if depth--; depth < 1 {
			return false
		}
	}
	return true
}

func randOperand(e Expression, rng *rand.Rand) int {
	for {
		i := rng.Intn(len(e))
		if !e[i].IsOperator() {
			return i
		}
	}
}

func randOperator(e Expression, rng *rand.Rand) int {
	if len(e) < 2 {
		return -1
	}
	for try := 0; try < 4*len(e); try++ {
		i := rng.Intn(len(e))
		if e[i].IsOperator() {
			return i
		}
	}
	return -1
}

// crossover builds a child taking the operand order from parent a where
// possible and the operator/operand skeleton (the positions of operators
// and their directions) from parent b. The result is always a valid
// expression: operator positions satisfy the ballot property because they
// are copied from a valid parent, and operands are a permutation by
// construction.
func crossover(a, b Expression, nBlocks int, rng *rand.Rand) Expression {
	// Operand order: order-preserving merge — take a random prefix of a's
	// operand sequence, then the remaining operands in b's order.
	aOps := operandOrder(a)
	bOps := operandOrder(b)
	cut := rng.Intn(len(aOps) + 1)
	used := make([]bool, nBlocks)
	merged := make([]Gene, 0, len(aOps))
	for _, g := range aOps[:cut] {
		merged = append(merged, g)
		used[g] = true
	}
	for _, g := range bOps {
		if !used[g] {
			merged = append(merged, g)
			used[g] = true
		}
	}
	// Skeleton from b: replace operands in order with the merged sequence.
	child := make(Expression, len(b))
	k := 0
	for i, g := range b {
		if g.IsOperator() {
			child[i] = g
		} else {
			child[i] = merged[k]
			k++
		}
	}
	return child
}

func operandOrder(e Expression) []Gene {
	out := make([]Gene, 0, (len(e)+1)/2)
	for _, g := range e {
		if !g.IsOperator() {
			out = append(out, g)
		}
	}
	return out
}
