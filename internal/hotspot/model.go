package hotspot

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/geom"
	"thermalsched/internal/linalg"
)

// Model is a compact thermal network built from a floorplan. It is safe
// for concurrent read-only use after construction.
type Model struct {
	cfg    Config
	names  []string       // block names, in floorplan insertion order
	byName map[string]int // name -> block index
	n      int            // number of block nodes
	// Node layout: 0..n-1 die blocks, n..2n-1 the per-block spreader
	// regions, 2n the peripheral spreader ring, 2n+1 the heat sink.
	// Ambient is the reference (ground).
	total int
	csr   *linalg.CSR            // conductance matrix (relative-to-ambient formulation)
	solv  *linalg.SparseCholesky // steady-state factor (see minDegreeBlocks for its order)
	caps  []float64              // node heat capacities (transient)

	// order is the min-degree elimination order of csr. Models of
	// minDegreeBlocks or more blocks compute it in NewModel for the
	// steady factor; smaller ones compute it on their first transient
	// factor, under stepMu.
	order []int

	// Influence columns: because the RC network is linear, steady-state
	// block temperature rise is an affine function of block power,
	// rise = S·p with S[i][j] = (G⁻¹)[i][j] restricted to block nodes.
	// Column j of S (every block's rise per watt in block j) is solved
	// on first use and cached, so a scheduler touching k blocks holds k
	// columns instead of an n×n matrix, and an inquiry with k powered
	// blocks costs k·n multiply-adds. A warm read is one atomic load;
	// colMu serializes only the first solve of each column.
	cols  []atomic.Pointer[[]float64]
	colMu sync.Mutex

	// Transient memo, per step size (most recently used first, at most
	// maxStepMemos entries): the backward-Euler factorization every
	// Transient at that step shares, and the unit-step self-rise curves
	// StepRise extends on demand.
	stepMu    sync.Mutex
	stepMemos []*stepMemo
}

// minDegreeBlocks is the block count from which NewModel factors the
// steady-state conductance matrix under MinDegreeOrdering instead of
// natural order. Building a model on floorplan.Grid and solving up to
// 64 of its influence columns (2-vCPU Xeon, Go 1.24, medians of five
// runs) took, natural order against min-degree: 0.14 against 0.21 ms
// at 16 blocks, 0.28 against 0.39 ms at 24, 0.48 against 0.50 ms at
// 32, 1.12 against 0.95 ms at 48 and 2.38 against 1.54 ms at 64. Below
// 32 blocks the ordering pass costs more than the fill it saves; above
// it the fill dominates. Every paper benchmark has fewer blocks, so
// those models keep the natural-order factor, which is bitwise equal
// to a dense Cholesky factorization.
const minDegreeBlocks = 32

// builders recycles the conductance assembly's triplet log and Build
// scratch across model builds. Build copies into arrays the model owns,
// so nothing a Model holds comes from the pool.
var builders = sync.Pool{New: func() any { return new(linalg.SparseBuilder) }}

// NewModel builds the thermal network for fp under cfg. The floorplan
// must be valid (non-empty, no overlaps). The steady-state factor's
// elimination order follows from the block count (minDegreeBlocks).
func NewModel(fp *floorplan.Floorplan, cfg Config) (*Model, error) {
	return newModel(fp, cfg, fp.NumBlocks() >= minDegreeBlocks)
}

// newModel is NewModel with the steady-state order given: min-degree
// when minDegree is set, natural otherwise. Only tests that compare
// the two orders on one floorplan pass it directly.
func newModel(fp *floorplan.Floorplan, cfg Config, minDegree bool) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fp.Validate(); err != nil {
		return nil, fmt.Errorf("hotspot: %w", err)
	}
	blocks := fp.Blocks()
	n := len(blocks)
	total := 2*n + 2
	ring, sink := 2*n, 2*n+1
	spreaderOf := func(i int) int { return n + i }

	m := &Model{
		cfg:    cfg,
		names:  fp.Names(),
		byName: make(map[string]int, n),
		n:      n,
		total:  total,
		caps:   make([]float64, total),
		cols:   make([]atomic.Pointer[[]float64], n),
	}
	for i, name := range m.names {
		m.byName[name] = i
	}

	// The sparse builder accumulates duplicates in insertion order, so
	// both elimination orders factor the same bits. Its triplet log is
	// recycled across builds and sized before the first Add: at most 8
	// triplets per abutting pair (die and spreader), 12 per block (ring
	// and vertical paths), 4 for ring → sink and 1 for sink → ambient.
	adj := fp.Adjacency(geom.Eps)
	pairs := 0
	for i := 0; i < n; i++ {
		pairs += len(adj[i])
	}
	gb := builders.Get().(*linalg.SparseBuilder)
	defer builders.Put(gb)
	gb.Reset(total)
	gb.Grow(8*pairs + 12*n + 5)
	addConductance := func(i, j int, g float64) {
		gb.Add(i, i, g)
		gb.Add(j, j, g)
		gb.Add(i, j, -g)
		gb.Add(j, i, -g)
	}

	// Lateral conductances between abutting blocks, in the die and in
	// the copper spreader: G = k · thickness · sharedEdge / centreDistance.
	// The spreader path dominates (copper, thicker), which is what makes
	// centre blocks run hotter than edge blocks — the spatial effect the
	// thermal-aware scheduler exploits.
	// Iterate the adjacency map in index order: float accumulation into
	// the conductance matrix is order-sensitive at the last ulp, and a
	// randomized map walk would make nominally identical models differ
	// between builds (breaking the byte-identical cross-surface
	// contract for heterogeneous floorplans, whose conductances are not
	// all equal).
	sharedOf := make([]float64, n) // total abutting edge length per block
	for i := 0; i < n; i++ {
		row := adj[i]
		if len(row) == 0 {
			continue
		}
		js := make([]int, 0, len(row))
		for j := range row {
			js = append(js, j)
		}
		sort.Ints(js)
		for _, j := range js {
			edge := row[j]
			sharedOf[i] += edge
			sharedOf[j] += edge
			d := blocks[i].Rect.Center().Dist(blocks[j].Rect.Center())
			if d <= 0 {
				continue
			}
			gDie := cfg.SiliconConductivity * cfg.DieThickness * edge / d
			addConductance(i, j, gDie)
			gSp := cfg.SpreaderConductivity * cfg.SpreaderThickness * edge / d
			addConductance(spreaderOf(i), spreaderOf(j), gSp)
		}
	}

	// Peripheral spreader ring: each block's spreader region couples to
	// the ring through its exposed (non-abutting) perimeter. Edge blocks
	// therefore sink heat into the package periphery that centre blocks
	// cannot reach directly — the physical reason edge placements run
	// cooler.
	bbox := fp.BoundingBox()
	ringArea := 2 * (bbox.W + bbox.H) * cfg.SpreaderRingWidth
	for i, b := range blocks {
		exposed := 2*(b.Rect.W+b.Rect.H) - sharedOf[i]
		if exposed <= 0 {
			continue
		}
		// Centre-of-block to centre-of-ring distance.
		d := (math.Sqrt(b.Rect.Area()) + cfg.SpreaderRingWidth) / 2
		g := cfg.SpreaderConductivity * cfg.SpreaderThickness * exposed / d
		addConductance(spreaderOf(i), ring, g)
	}

	// Vertical paths. Block → its spreader region: die conduction in
	// series with the interface material. Spreader region → sink: the
	// total spreader-to-sink resistance apportioned by area share.
	var totalArea float64
	for _, b := range blocks {
		totalArea += b.Rect.Area()
	}
	for i, b := range blocks {
		area := b.Rect.Area()
		rDie := cfg.DieThickness / (cfg.SiliconConductivity * area)
		rIface := cfg.InterfaceResistivity / area
		addConductance(i, spreaderOf(i), 1/(rDie+rIface))
		rSp := cfg.SpreaderToSinkResistance * totalArea / area
		addConductance(spreaderOf(i), sink, 1/rSp)
		m.caps[i] = cfg.SiliconVolumetricHeat * area * cfg.DieThickness
		m.caps[spreaderOf(i)] = cfg.SpreaderVolumetricHeat * area * cfg.SpreaderThickness
	}

	// Ring → sink: the spreader-to-sink resistance scaled by the ring's
	// area share, like the per-block regions.
	if ringArea > 0 {
		rRing := cfg.SpreaderToSinkResistance * totalArea / ringArea
		addConductance(ring, sink, 1/rRing)
	}
	m.caps[ring] = math.Max(cfg.SpreaderVolumetricHeat*ringArea*cfg.SpreaderThickness, 1e-6)

	// Sink → ambient. Ambient is the reference node, so the convection
	// conductance appears only on the sink's diagonal.
	gb.Add(sink, sink, 1/cfg.ConvectionResistance)
	m.caps[sink] = cfg.SinkHeatCapacity

	m.csr = gb.Build()
	if minDegree {
		m.order = linalg.MinDegreeOrdering(m.csr)
	}
	f, err := linalg.FactorSparseCholeskyOrdered(m.csr, m.order)
	if err != nil {
		return nil, fmt.Errorf("hotspot: conductance matrix not SPD (floorplan degenerate?): %w", err)
	}
	m.solv = f
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// BlockNames returns the block names in node order.
func (m *Model) BlockNames() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}

// NumBlocks returns the number of block nodes (excluding spreader/sink).
func (m *Model) NumBlocks() int { return m.n }

// powerVector converts a name→watts map into the full node-power vector.
// Unknown names are an error; blocks absent from the map dissipate zero.
func (m *Model) powerVector(power map[string]float64) ([]float64, error) {
	p := make([]float64, m.total)
	names := make([]string, 0, len(power))
	for name := range power {
		names = append(names, name)
	}
	// The vector fill writes disjoint indices, but which invalid
	// entry gets reported must not depend on map order: iterate
	// sorted.
	sort.Strings(names)
	for _, name := range names {
		w := power[name]
		i, ok := m.byName[name]
		if !ok {
			return nil, fmt.Errorf("hotspot: power for unknown block %q", name)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("hotspot: invalid power %g W for block %q", w, name)
		}
		p[i] = w
	}
	return p, nil
}

// Temps holds per-block steady-state or instantaneous temperatures in °C.
type Temps struct {
	names  []string
	byName map[string]int
	values []float64 // block temps only, °C
}

// Of returns the temperature of the named block.
func (t Temps) Of(name string) (float64, bool) {
	i, ok := t.byName[name]
	if !ok {
		return 0, false
	}
	return t.values[i], true
}

// Values returns the block temperatures in node order (copy).
func (t Temps) Values() []float64 {
	out := make([]float64, len(t.values))
	copy(out, t.values)
	return out
}

// Names returns the block names in node order (copy).
func (t Temps) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// Max returns the hottest block temperature.
func (t Temps) Max() float64 { return linalg.Max(t.values) }

// Min returns the coolest block temperature.
func (t Temps) Min() float64 { return linalg.Min(t.values) }

// Avg returns the mean block temperature — the quantity the paper's
// thermal-aware ASP minimizes.
func (t Temps) Avg() float64 { return linalg.Mean(t.values) }

// Spread returns Max − Min, a measure of thermal evenness.
func (t Temps) Spread() float64 { return t.Max() - t.Min() }

// SteadyState solves the network for the given per-block power map
// (watts) and returns block temperatures in °C.
func (m *Model) SteadyState(power map[string]float64) (Temps, error) {
	p, err := m.powerVector(power)
	if err != nil {
		return Temps{}, err
	}
	return m.steadyFromVector(p)
}

// SteadyStateVec is like SteadyState but takes powers indexed by block
// node order (length NumBlocks). It rides the influence-column fast
// path; callers that need zero allocations use SteadyStateInto.
func (m *Model) SteadyStateVec(power []float64) (Temps, error) {
	vals := make([]float64, m.n)
	if err := m.SteadyStateInto(vals, power); err != nil {
		return Temps{}, err
	}
	return Temps{names: m.names, byName: m.byName, values: vals}, nil
}

// SteadyStateInto computes steady-state block temperatures (°C) for a
// block-order power vector into dst (length NumBlocks) without
// allocating once the influence columns of the powered blocks are
// warm: the powered-block-weighted sum of those columns, k·n
// multiply-adds for k powered blocks. dst and power must not alias.
// This is the form behind every thermal inquiry of the thermal-aware
// ASP.
func (m *Model) SteadyStateInto(dst, power []float64) error {
	if len(power) != m.n {
		return fmt.Errorf("hotspot: power vector length %d, want %d", len(power), m.n)
	}
	if len(dst) != m.n {
		return fmt.Errorf("hotspot: temperature vector length %d, want %d", len(dst), m.n)
	}
	for i, w := range power {
		// One branch per element: w >= 0 is false for NaN, the upper
		// bound rejects +Inf (negatives and -Inf fail the first test).
		if !(w >= 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("hotspot: invalid power %g W for block %q", w, m.names[i])
		}
	}
	out := dst[:m.n]
	for i := range out {
		out[i] = 0
	}
	// Each block's sum visits the columns in increasing j, skipping
	// only exact-zero terms, which add nothing.
	for j, w := range power {
		if w == 0 {
			continue
		}
		col, err := m.influenceRowCached(j)
		if err != nil {
			return err
		}
		// Re-slicing to len(out) lets the compiler elide the bounds
		// checks in the inner loop — the entire inquiry cost.
		col = col[:len(out)]
		for i := range out {
			out[i] += col[i] * w
		}
	}
	ambient := m.cfg.AmbientC
	for i := range out {
		out[i] += ambient
	}
	return nil
}

// SteadyStateDirect is the reference steady-state path: a full
// triangular solve against the cached Cholesky factorization per call.
// The influence-column fast path is verified against it in tests; it
// also lets single-shot callers (one inquiry per model) skip a column
// solve per powered block.
func (m *Model) SteadyStateDirect(power []float64) (Temps, error) {
	if len(power) != m.n {
		return Temps{}, fmt.Errorf("hotspot: power vector length %d, want %d", len(power), m.n)
	}
	p := make([]float64, m.total)
	for i, w := range power {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Temps{}, fmt.Errorf("hotspot: invalid power %g W for block %q", w, m.names[i])
		}
		p[i] = w
	}
	return m.steadyFromVector(p)
}

func (m *Model) steadyFromVector(p []float64) (Temps, error) {
	rise := make([]float64, m.total)
	if err := m.solv.SolveInto(rise, p); err != nil {
		return Temps{}, fmt.Errorf("hotspot: steady-state solve: %w", err)
	}
	vals := make([]float64, m.n)
	for i := range vals {
		vals[i] = rise[i] + m.cfg.AmbientC
	}
	return Temps{names: m.names, byName: m.byName, values: vals}, nil
}

// InfluenceRow returns influence column i: the steady-state
// temperature rise of every block per watt injected into block i.
// G⁻¹ is symmetric, so this is also row i (block i's rise per watt in
// each block) up to rounding. The column is solved and cached on first
// use; the returned slice is shared read-only state — callers must not
// modify it.
func (m *Model) InfluenceRow(i int) ([]float64, error) {
	if i < 0 || i >= m.n {
		return nil, fmt.Errorf("hotspot: influence row %d out of range [0,%d)", i, m.n)
	}
	return m.influenceRowCached(i)
}

// influenceRowCached returns influence column j, solving it on first
// request. The warm read is one atomic load, allocation- and lock-free.
func (m *Model) influenceRowCached(j int) ([]float64, error) {
	if col := m.cols[j].Load(); col != nil {
		return *col, nil
	}
	return m.influenceRowSolve(j)
}

// influenceRowSolve solves column j under colMu, unless a concurrent
// first touch already published it.
func (m *Model) influenceRowSolve(j int) ([]float64, error) {
	m.colMu.Lock()
	defer m.colMu.Unlock()
	if col := m.cols[j].Load(); col != nil {
		return *col, nil
	}
	x := make([]float64, m.total)
	x[j] = 1
	if err := m.solv.SolveInto(x, x); err != nil {
		return nil, fmt.Errorf("hotspot: influence column solve: %w", err)
	}
	col := x[:m.n:m.n]
	m.cols[j].Store(&col)
	return col, nil
}

// SteadyNodeRise solves the steady-state temperature rise of *every*
// node of the network — die blocks, spreader regions, ring and sink —
// under per-block powers in node order. The result is the full thermal
// state a Transient can be warm-started from (Transient.SetRise), so a
// closed-loop run can begin with the package already at the operating
// point of a sustained workload instead of at cold ambient.
func (m *Model) SteadyNodeRise(blockPower []float64) ([]float64, error) {
	if len(blockPower) != m.n {
		return nil, fmt.Errorf("hotspot: power vector length %d, want %d", len(blockPower), m.n)
	}
	p := make([]float64, m.total)
	copy(p, blockPower)
	rise := make([]float64, m.total)
	if err := m.solv.SolveInto(rise, p); err != nil {
		return nil, fmt.Errorf("hotspot: steady node solve: %w", err)
	}
	return rise, nil
}
