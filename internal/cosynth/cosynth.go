package cosynth

import (
	"context"
	"fmt"
	"math"
	"sort"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/search"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// CoSynthConfig parameterizes the co-synthesis flow (Fig. 1a).
type CoSynthConfig struct {
	// Policy selects the ASP variant used while evaluating candidate
	// architectures and for the final schedule.
	Policy sched.Policy
	// Sched overrides the scheduler configuration (Policy is forced).
	Sched *sched.Config
	// CandidateTypes are the library PE type names co-synthesis may
	// instantiate. Nil means the co-synthesis palette
	// (techlib.CoSynthesisSpecs names).
	CandidateTypes []string
	// MaxPEs caps the architecture size. Zero means 6.
	MaxPEs int
	// BusTimePerUnit as in PlatformConfig.
	BusTimePerUnit float64
	// HotSpot overrides the thermal model configuration.
	HotSpot *hotspot.Config
	// FloorplanGenerations sizes the GA floorplanner effort per candidate
	// architecture. Zero means 30.
	FloorplanGenerations int
	// Seed drives the GA floorplanner. For backwards compatibility a
	// zero Seed means 1 unless SeedSet is true.
	Seed int64
	// SeedSet marks Seed as explicitly chosen, making a literal zero
	// seed usable. The Engine API sets this whenever a request carries
	// a seed.
	SeedSet bool
	// Models supplies thermal models; nil means hotspot.NewModel. The
	// Engine layer injects its factorization cache here.
	Models ModelProvider
	// Search is the token pool bounding the concurrent
	// candidate-architecture evaluations of the co-synthesis
	// neighborhood loops and the GA floorplanner's packing evaluations
	// inside each; nil means serial. The Engine passes its process-wide
	// pool (or a request's own) so concurrent requests compose without
	// oversubscription. Candidate enumeration and selection stay serial
	// and in submission order, so the Result is byte-identical for every
	// pool size.
	Search *search.Pool
}

func (c *CoSynthConfig) withDefaults(lib *techlib.Library) (CoSynthConfig, error) {
	out := *c
	if out.CandidateTypes == nil {
		for _, s := range techlib.CoSynthesisSpecs() {
			out.CandidateTypes = append(out.CandidateTypes, s.Name)
		}
	}
	for _, name := range out.CandidateTypes {
		if _, ok := lib.PETypeIndex(name); !ok {
			return out, fmt.Errorf("cosynth: candidate PE type %q not in library", name)
		}
	}
	if out.MaxPEs == 0 {
		out.MaxPEs = 6
	}
	if out.MaxPEs < 1 {
		return out, fmt.Errorf("cosynth: MaxPEs %d invalid", out.MaxPEs)
	}
	if out.BusTimePerUnit == 0 {
		out.BusTimePerUnit = DefaultBusTimePerUnit
	}
	if out.FloorplanGenerations == 0 {
		out.FloorplanGenerations = 30
	}
	//thermalvet:allow seedzero(guarded by the SeedSet presence flag: zero with SeedSet unset means "not provided" and takes the historical default 1; an explicit Seed 0 sets SeedSet and is honored verbatim)
	if out.Seed == 0 && !out.SeedSet {
		out.Seed = 1
	}
	return out, nil
}

// RunCoSynthesis executes the co-synthesis flow: starting from the
// cheapest viable single-PE architecture, it grows/upgrades the PE set
// until the deadline is met, floorplanning every candidate (with the
// thermal objective when the policy is thermal-aware) and scheduling
// with the configured ASP; finally it prunes PEs that the deadline does
// not need, minimizing cost.
//
// ctx is checked before every candidate-architecture evaluation and
// threaded into the GA floorplanner and the ASP, so long co-synthesis
// runs abort promptly.
//
// With a parallel Search pool each neighborhood of candidate
// architectures is enumerated serially, evaluated concurrently, and
// selected in submission order, so the search visits exactly the
// architectures the serial flow visits and the Result is byte-identical
// for every parallelism level.
func RunCoSynthesis(ctx context.Context, g *taskgraph.Graph, lib *techlib.Library, cfg CoSynthConfig) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	c, err := cfg.withDefaults(lib)
	if err != nil {
		return nil, err
	}
	pool := c.Search

	// Search accounting: floorplanner packing evaluations and memo hits
	// summed over every candidate architecture explored, reported on the
	// final Result.
	totEvals, totMemoHits := 0, 0
	account := func(rs ...*Result) {
		for _, r := range rs {
			if r != nil {
				totEvals += r.SearchEvals
				totMemoHits += r.SearchMemoHits
			}
		}
	}
	// evaluateAll fans one candidate neighborhood over the pool, filling
	// results in submission order; the lowest-index error wins, exactly
	// as in the serial flow.
	evaluateAll := func(optss [][]int) ([]*Result, error) {
		out := make([]*Result, len(optss))
		err := pool.Map(len(optss), func(i int) error {
			r, err := evaluate(ctx, g, lib, optss[i], c)
			if err != nil {
				return err
			}
			out[i] = r
			return nil
		})
		if err != nil {
			return nil, err
		}
		account(out...)
		return out, nil
	}

	// Candidate type indices sorted by cost (cheapest first).
	type cand struct {
		name string
		idx  int
		cost float64
	}
	var cands []cand
	for _, name := range c.CandidateTypes {
		i, _ := lib.PETypeIndex(name)
		cands = append(cands, cand{name: name, idx: i, cost: lib.PEType(i).Cost})
	}
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].cost < cands[i].cost {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}

	// Task types used by the graph (the initial PE must cover them
	// all), deduplicated through a set but iterated as a sorted slice
	// so coverage failures always report deterministically.
	usedSet := map[int]bool{}
	for _, t := range g.Tasks() {
		usedSet[t.Type] = true
	}
	used := make([]int, 0, len(usedSet))
	for tt := range usedSet {
		used = append(used, tt)
	}
	sort.Ints(used)
	covers := func(typeIdx int) bool {
		for _, tt := range used {
			if _, ok := lib.Lookup(typeIdx, tt); !ok {
				return false
			}
		}
		return true
	}
	unionCovers := func(types []int) bool {
		for _, tt := range used {
			found := false
			for _, ti := range types {
				if _, ok := lib.Lookup(ti, tt); ok {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return len(types) > 0
	}

	var seedType *cand
	for i := range cands {
		if covers(cands[i].idx) {
			seedType = &cands[i]
			break
		}
	}
	if seedType == nil {
		return nil, fmt.Errorf("cosynth: no candidate PE type covers all task types of %q", g.Name)
	}

	types := []int{seedType.idx} // current architecture as a type multiset
	best, err := evaluate(ctx, g, lib, types, c)
	if err != nil {
		return nil, err
	}
	account(best)

	// Grow until feasible: at each step try appending each candidate type
	// and upgrading each existing slot to each candidate type. Among
	// infeasible variants the lowest makespan wins (progress towards the
	// deadline); once variants are feasible, the thermal-aware flow picks
	// the coolest (the Fig. 1a "meets requirement?" check includes the
	// thermal goal) while the power-aware flows pick the cheapest (the
	// classic co-synthesis cost objective).
	for !best.Metrics.Feasible && len(types) < c.MaxPEs {
		type option struct {
			types []int
			res   *Result
		}
		var bestOpt *option
		better := func(a, b *Result) bool {
			if a.Metrics.Feasible != b.Metrics.Feasible {
				return a.Metrics.Feasible
			}
			if !a.Metrics.Feasible {
				if math.Abs(a.Metrics.Makespan-b.Metrics.Makespan) > 1e-9 {
					return a.Metrics.Makespan < b.Metrics.Makespan
				}
				return a.Metrics.Cost < b.Metrics.Cost
			}
			if c.Policy == sched.ThermalAware {
				if math.Abs(a.Metrics.MaxTemp-b.Metrics.MaxTemp) > 1e-9 {
					return a.Metrics.MaxTemp < b.Metrics.MaxTemp
				}
			}
			if a.Metrics.Cost != b.Metrics.Cost {
				return a.Metrics.Cost < b.Metrics.Cost
			}
			return a.Metrics.Makespan < b.Metrics.Makespan
		}
		// Enumerate the whole neighborhood first (append candidates,
		// then per-slot upgrades), evaluate it over the pool, and pick
		// the winner in submission order.
		var opts [][]int
		for _, cd := range cands {
			opts = append(opts, append(append([]int{}, types...), cd.idx))
		}
		for slot := range types {
			for _, cd := range cands {
				if cd.idx == types[slot] {
					continue
				}
				upgraded := append([]int{}, types...)
				upgraded[slot] = cd.idx
				if !unionCovers(upgraded) {
					continue
				}
				opts = append(opts, upgraded)
			}
		}
		results, err := evaluateAll(opts)
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			if bestOpt == nil || better(r, bestOpt.res) {
				bestOpt = &option{types: opts[i], res: r}
			}
		}
		if bestOpt == nil ||
			(!bestOpt.res.Metrics.Feasible && bestOpt.res.Metrics.Makespan >= best.Metrics.Makespan-1e-9) {
			break // no progress; return the best infeasible solution
		}
		types, best = bestOpt.types, bestOpt.res
	}

	// Thermal-aware growth phase: the Fig. 1a loop keeps iterating while
	// the thermal requirement improves, so once feasible the thermal flow
	// continues to add or swap PEs as long as peak temperature drops
	// meaningfully — trading cost for heat spreading, which is what
	// distinguishes the thermal-aware customized architectures of the
	// paper's Table 2.
	if c.Policy == sched.ThermalAware && best.Metrics.Feasible {
		for len(types) < c.MaxPEs {
			type option struct {
				types []int
				res   *Result
			}
			var bestOpt *option
			var opts [][]int
			for _, cd := range cands {
				opts = append(opts, append(append([]int{}, types...), cd.idx))
			}
			for slot := range types {
				for _, cd := range cands {
					if cd.idx == types[slot] {
						continue
					}
					swapped := append([]int{}, types...)
					swapped[slot] = cd.idx
					if !unionCovers(swapped) {
						continue
					}
					opts = append(opts, swapped)
				}
			}
			results, err := evaluateAll(opts)
			if err != nil {
				return nil, err
			}
			for i, r := range results {
				if !r.Metrics.Feasible {
					continue
				}
				if bestOpt == nil || r.Metrics.MaxTemp < bestOpt.res.Metrics.MaxTemp {
					bestOpt = &option{types: opts[i], res: r}
				}
			}
			if bestOpt == nil || bestOpt.res.Metrics.MaxTemp >= best.Metrics.MaxTemp-0.5 {
				break
			}
			types, best = bestOpt.types, bestOpt.res
		}
	}

	// Prune: drop PEs whose removal keeps the deadline. The power-aware
	// flows prune for cost alone; the thermal-aware flow additionally
	// refuses prunes that heat the die (removing a PE concentrates
	// power), mirroring the thermal goal in the flow's requirement check.
	if best.Metrics.Feasible {
		for changed := true; changed && len(types) > 1; {
			changed = false
			acceptable := func(r *Result) bool {
				if !r.Metrics.Feasible {
					return false
				}
				if c.Policy == sched.ThermalAware && r.Metrics.MaxTemp > best.Metrics.MaxTemp+0.5 {
					return false
				}
				return true
			}
			var opts [][]int
			for slot := 0; slot < len(types); slot++ {
				pruned := append(append([]int{}, types[:slot]...), types[slot+1:]...)
				if !unionCovers(pruned) {
					continue
				}
				opts = append(opts, pruned)
			}
			if pool.Parallel() && !pool.Saturated() {
				// Evaluate every prunable slot concurrently and commit
				// the first acceptable one — the same prune the serial
				// scan below commits, at the cost of speculative work on
				// the later slots. When every token is already held
				// (concurrent requests on a shared pool) the fan-out
				// would run inline anyway, so the saturation probe —
				// a racy hint, both branches commit the same prune —
				// routes to the early-exit serial scan instead of
				// paying for speculation with no concurrency to gain.
				// Errors are collected per slot and surfaced only when
				// the in-order scan reaches them before an acceptable
				// commit, exactly as the serial scan would: a failure
				// in a slot the serial path never evaluates must not
				// fail the parallel run.
				results := make([]*Result, len(opts))
				errs := make([]error, len(opts))
				_ = pool.Map(len(opts), func(i int) error {
					results[i], errs[i] = evaluate(ctx, g, lib, opts[i], c)
					return nil
				})
				account(results...)
				for i, r := range results {
					if errs[i] != nil {
						return nil, errs[i]
					}
					if acceptable(r) {
						types, best = opts[i], r
						changed = true
						break
					}
				}
				continue
			}
			for i := range opts {
				r, err := evaluate(ctx, g, lib, opts[i], c)
				if err != nil {
					return nil, err
				}
				account(r)
				if acceptable(r) {
					types, best = opts[i], r
					changed = true
					break
				}
			}
		}
	}
	best.SearchEvals, best.SearchMemoHits = totEvals, totMemoHits
	return best, nil
}

// evaluate builds a concrete architecture from a type multiset,
// floorplans it, wires the thermal model, runs the ASP, and scores it.
// It is safe for concurrent use (the neighborhood fan-out calls it from
// pool workers); c.Search is shared with the GA floorplanner so nested
// parallelism stays within one budget.
func evaluate(ctx context.Context, g *taskgraph.Graph, lib *techlib.Library, types []int, c CoSynthConfig) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cosynth: cancelled: %w", err)
	}
	arch := sched.Architecture{
		Name:           fmt.Sprintf("cosynth-%dpe", len(types)),
		BusTimePerUnit: c.BusTimePerUnit,
	}
	blocks := make([]floorplan.Block, 0, len(types))
	for i, ti := range types {
		name := fmt.Sprintf("pe%d", i)
		arch.PEs = append(arch.PEs, sched.PE{Name: name, Type: ti})
		blocks = append(blocks, floorplan.Block{
			Name: name, Area: lib.PEType(ti).Area, MinAspect: 0.5, MaxAspect: 2,
		})
	}
	if err := arch.Validate(lib); err != nil {
		return nil, err
	}

	hs := hotspot.DefaultConfig()
	if c.HotSpot != nil {
		hs = *c.HotSpot
	}

	// Pilot schedule (heuristic 3) for the floorplanner's power estimates.
	pilotCfg := sched.DefaultConfig(sched.MinTaskEnergy)
	pilot, err := sched.AllocateAndSchedule(ctx, g, arch, lib, pilotCfg)
	if err != nil {
		return nil, fmt.Errorf("cosynth: pilot schedule: %w", err)
	}
	pilotPow, err := pilot.PEAveragePower(g.Deadline)
	if err != nil {
		return nil, err
	}
	powerByName := make(map[string]float64, len(arch.PEs))
	for i, pe := range arch.PEs {
		powerByName[pe.Name] = pilotPow[i]
	}

	// Floorplan the candidate architecture. The thermal-aware flow runs
	// the GA with the peak-temperature objective (ref [3]); other
	// policies pack for area only.
	gaCfg := floorplan.DefaultGAConfig()
	gaCfg.Generations = c.FloorplanGenerations
	gaCfg.Seed = c.Seed
	gaCfg.Pool = c.Search
	if c.Policy == sched.ThermalAware {
		gaCfg.Eval = func(fp *floorplan.Floorplan, power map[string]float64) (float64, error) {
			m, err := c.Models.newModel(fp, hs)
			if err != nil {
				return 0, err
			}
			temps, err := m.SteadyState(power)
			if err != nil {
				return 0, err
			}
			return temps.Max(), nil
		}
		gaCfg.Power = powerByName
		gaCfg.TempWeight = 1.0
	} else {
		gaCfg.TempWeight = 0
	}
	fpRes, err := floorplan.RunGA(ctx, blocks, gaCfg)
	if err != nil {
		return nil, fmt.Errorf("cosynth: floorplanning: %w", err)
	}

	model, err := c.Models.newModel(fpRes.Plan, hs)
	if err != nil {
		return nil, err
	}
	oracle, err := sched.NewModelOracle(model, arch)
	if err != nil {
		return nil, err
	}

	sc := sched.DefaultConfig(c.Policy)
	if c.Sched != nil {
		sc = *c.Sched
		sc.Policy = c.Policy
	}
	if c.Policy == sched.ThermalAware {
		sc.Oracle = oracle
	}
	s, err := sched.AllocateAndSchedule(ctx, g, arch, lib, sc)
	if err != nil {
		return nil, fmt.Errorf("cosynth: schedule on %s: %w", arch.Name, err)
	}
	m, err := computeMetrics(s, oracle)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule: s, Arch: arch, Plan: fpRes.Plan, Model: model, Oracle: oracle, Metrics: m,
		SearchEvals: fpRes.Evals, SearchMemoHits: fpRes.MemoHits,
	}, nil
}
