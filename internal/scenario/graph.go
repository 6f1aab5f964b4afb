package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// edge is a graph edge under construction, before it is committed to a
// taskgraph.Graph.
type edge struct {
	from, to int
	data     float64
	prob     float64
}

// generateGraph builds the scenario's task graph: structure per the
// requested shape, communication volumes calibrated to the CCR target,
// conditional branches per BranchDensity, and a deadline derived from
// the platform-aware schedule-length lower bound times Tightness.
func generateGraph(spec Spec, lib *techlib.Library) (*taskgraph.Graph, error) {
	g := spec.Graph
	rng := rngFor(spec.Seed)

	var edges []edge
	var err error
	switch g.Shape {
	case ShapeLayered:
		edges, err = layeredEdges(g, rng)
	case ShapeSeriesParallel:
		edges, err = seriesParallelEdges(g, rng)
	default: // unreachable after Validate
		err = fmt.Errorf("scenario: unknown shape %q", g.Shape)
	}
	if err != nil {
		return nil, err
	}

	types := make([]int, g.Tasks)
	for i := range types {
		types[i] = rng.Intn(g.Types)
	}

	// CCR calibration: mean transfer time = CCR × mean execution time,
	// so mean data volume = CCR × meanWCET / busRate. Volumes are drawn
	// uniformly in [0.5, 1.5] × mean (floor 1, the .tg format's minimum
	// meaningful volume).
	meanWCET := meanLibraryWCET(lib, types)
	meanData := g.CCR * meanWCET / techlib.DefaultBusTimePerUnit
	for i := range edges {
		d := meanData * (0.5 + rng.Float64())
		if d < 1 {
			d = 1
		}
		edges[i].data = math.Round(d)
	}

	if g.BranchDensity > 0 {
		markBranchEdges(edges, g.Tasks, g.BranchDensity, rng)
	}

	// Deadline: Tightness × max(critical path, work bound), set on the
	// built graph because the critical path needs the final structure
	// and volumes.
	b := taskgraph.NewBuilder(spec.Name, 1) // placeholder deadline, fixed below
	for i := 0; i < g.Tasks; i++ {
		if err := b.AddTask(taskgraph.Task{ID: i, Name: fmt.Sprintf("t%d", i), Type: types[i]}); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		if err := b.AddEdge(taskgraph.Edge{From: e.from, To: e.to, Data: e.data, Prob: e.prob}); err != nil {
			return nil, err
		}
	}
	tg, err := b.Build()
	if err != nil {
		return nil, err
	}
	tg.Deadline = math.Round(g.Tightness * lowerBound(tg, lib, spec.Platform.PEs))
	if err := tg.Validate(); err != nil {
		return nil, err
	}
	return tg, nil
}

// meanLibraryWCET is the average mean-WCET over the tasks' realized
// type mix — the computation scale the CCR target is measured against.
func meanLibraryWCET(lib *techlib.Library, types []int) float64 {
	var sum float64
	n := 0
	for _, t := range types {
		if w, err := lib.MeanWCET(t); err == nil {
			sum += w
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// lowerBound estimates the schedule length floor: the critical path
// (mean WCETs plus bus transfer times) or the aggregate work spread
// over the platform's PEs, whichever is larger.
func lowerBound(g *taskgraph.Graph, lib *techlib.Library, pes int) float64 {
	weight := func(t taskgraph.Task) float64 {
		w, err := lib.MeanWCET(t.Type)
		if err != nil {
			return 0
		}
		return w
	}
	cp := g.CriticalPathLength(weight, func(e taskgraph.Edge) float64 {
		return e.Data * techlib.DefaultBusTimePerUnit
	})
	var work float64
	for _, t := range g.Tasks() {
		work += weight(t)
	}
	if bound := work / float64(pes); bound > cp {
		return bound
	}
	return cp
}

// layeredEdges builds the layered (TGFF-style) structure: tasks are
// binned into ranks, every non-source task draws 1..MaxFanIn parents
// from earlier ranks (biased to the previous one), and parents are
// chosen under the MaxFanOut cap while any candidate has headroom.
func layeredEdges(g GraphParams, rng *rand.Rand) ([]edge, error) {
	n := g.Tasks
	if n == 1 {
		return nil, nil
	}
	// Rank count ~ sqrt(n): deep enough for real precedence, wide
	// enough for parallelism. At least 2 ranks so an edge exists.
	layers := int(math.Round(math.Sqrt(float64(n))))
	if layers < 2 {
		layers = 2
	}
	if layers > n {
		layers = n
	}
	// Sizes: one task per rank guaranteed, the rest distributed
	// uniformly.
	sizes := make([]int, layers)
	for i := range sizes {
		sizes[i] = 1
	}
	for extra := n - layers; extra > 0; extra-- {
		sizes[rng.Intn(layers)]++
	}
	// Task IDs in rank order, so every edge runs from a lower ID to a
	// higher one (acyclic by construction).
	start := make([]int, layers+1)
	for i, s := range sizes {
		start[i+1] = start[i] + s
	}

	outDeg := make([]int, n)
	var edges []edge
	pick := func(lo, hi int) int { // a parent in [lo, hi) under the fan-out cap
		// Prefer candidates with fan-out headroom; fall back to any
		// candidate (the caps are targets, not hard guarantees, when a
		// rank is too small to satisfy them).
		for attempt := 0; attempt < 4*(hi-lo); attempt++ {
			p := lo + rng.Intn(hi-lo)
			if outDeg[p] < g.MaxFanOut {
				return p
			}
		}
		return lo + rng.Intn(hi-lo)
	}
	hasEdge := make(map[[2]int]bool)
	add := func(from, to int) {
		key := [2]int{from, to}
		if hasEdge[key] {
			return
		}
		hasEdge[key] = true
		outDeg[from]++
		edges = append(edges, edge{from: from, to: to})
	}
	for l := 1; l < layers; l++ {
		for id := start[l]; id < start[l+1]; id++ {
			fanIn := 1 + rng.Intn(g.MaxFanIn)
			for k := 0; k < fanIn; k++ {
				lo, hi := start[l-1], start[l]
				if k > 0 && l > 1 && rng.Float64() < 0.2 {
					// Occasional deeper edge, TGFF-style skip-level
					// dependency.
					deep := rng.Intn(l - 1)
					lo, hi = start[deep], start[deep+1]
				}
				add(pick(lo, hi), id)
			}
		}
	}
	return edges, nil
}

// seriesParallelEdges builds a recursive series-parallel graph over the
// contiguous ID range [0, n): every sub-range has a unique source (its
// lowest ID) and unique sink (its highest), composed either in series
// or as a fork-join with up to MaxFanOut parallel branches.
func seriesParallelEdges(g GraphParams, rng *rand.Rand) ([]edge, error) {
	var edges []edge
	add := func(from, to int) { edges = append(edges, edge{from: from, to: to}) }
	var build func(lo, hi int)
	build = func(lo, hi int) {
		n := hi - lo + 1
		if n <= 3 {
			for i := lo; i < hi; i++ {
				add(i, i+1)
			}
			return
		}
		if g.MaxFanOut < 2 || rng.Float64() < 0.4 {
			// Series: [lo, mid] then [mid+1, hi], joined by one edge.
			mid := lo + 1 + rng.Intn(n-2)
			build(lo, mid)
			build(mid+1, hi)
			add(mid, mid+1)
			return
		}
		// Parallel: lo forks into k branches over the interior IDs,
		// all joining at hi.
		interior := n - 2
		k := 2 + rng.Intn(g.MaxFanOut-1)
		if k > interior {
			k = interior
		}
		// Split the interior into k contiguous segments.
		cut := lo + 1
		for b := 0; b < k; b++ {
			remaining := hi - cut // interior IDs left, exclusive of hi
			segLen := remaining - (k - 1 - b)
			if b < k-1 && segLen > 1 {
				segLen = 1 + rng.Intn(segLen)
			}
			segHi := cut + segLen - 1
			build(cut, segHi)
			add(lo, cut)
			add(segHi, hi)
			cut = segHi + 1
		}
	}
	if g.Tasks > 1 {
		build(0, g.Tasks-1)
	}
	return edges, nil
}

// markBranchEdges converts a fraction of the multi-successor tasks into
// conditional branch nodes: their out-edges get probabilities drawn
// from a Dirichlet-like split summing to 1 (each branch at least 5%),
// rounded down so float noise cannot push the sum past 1.
func markBranchEdges(edges []edge, tasks int, density float64, rng *rand.Rand) {
	succ := make([][]int, tasks) // edge indices per source task
	for i, e := range edges {
		succ[e.from] = append(succ[e.from], i)
	}
	for id := 0; id < tasks; id++ {
		out := succ[id]
		if len(out) < 2 || rng.Float64() >= density {
			continue
		}
		weights := make([]float64, len(out))
		var sum float64
		for i := range weights {
			weights[i] = 0.05 + rng.Float64()
			sum += weights[i]
		}
		for i, ei := range out {
			edges[ei].prob = math.Floor(weights[i]/sum*1e6) / 1e6
		}
	}
}
