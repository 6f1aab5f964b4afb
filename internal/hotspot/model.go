package hotspot

import (
	"fmt"
	"math"
	"slices"
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

// scratches recycles the network assembly's buffers across model
// builds and SteadyPeak calls. NewModel copies what it keeps out of
// them (Build allocates the model's CSR), so nothing a Model holds
// comes from the pool.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// scratch is one assembly's working storage: the triplet log, the
// adjacency list and per-block abutting edge lengths, and for
// SteadyPeak the matrix, its factor, the power and rise vectors it
// solves with and the power map's sorted keys.
type scratch struct {
	gb     linalg.SparseBuilder
	adj    []floorplan.Abutment
	shared []float64

	csr  linalg.CSR
	chol linalg.SparseCholesky
	p    []float64
	rise []float64
	keys []string
}

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
	n := fp.NumBlocks()
	total := 2*n + 2
	caps := make([]float64, total)
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	if err := s.assemble(fp, cfg, caps); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:    cfg,
		names:  fp.Names(),
		byName: make(map[string]int, n),
		n:      n,
		total:  total,
		csr:    s.gb.Build(),
		caps:   caps,
		cols:   make([]atomic.Pointer[[]float64], n),
	}
	for i, name := range m.names {
		m.byName[name] = i
	}
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

// SteadyPeak returns the hottest block's steady-state temperature (°C)
// of fp under cfg and the per-block power map (watts): bit for bit
// NewModel(fp, cfg) followed by SteadyState(power).Max(), with the
// same errors in the same order. It keeps nothing, so it suits a
// search that scores each floorplan once: the network is assembled,
// factored and solved in pooled scratch, and below minDegreeBlocks
// blocks a warm call allocates nothing. It is safe for concurrent use.
func SteadyPeak(fp *floorplan.Floorplan, cfg Config, power map[string]float64) (float64, error) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	return s.steadyPeak(fp, cfg, power)
}

// steadyPeak is SteadyPeak in s.
func (s *scratch) steadyPeak(fp *floorplan.Floorplan, cfg Config, power map[string]float64) (float64, error) {
	if err := s.assemble(fp, cfg, nil); err != nil {
		return 0, err
	}
	s.gb.BuildInto(&s.csr)
	var order []int
	if fp.NumBlocks() >= minDegreeBlocks {
		order = linalg.MinDegreeOrdering(&s.csr)
	}
	if err := s.chol.Refactor(&s.csr, order); err != nil {
		return 0, fmt.Errorf("hotspot: conductance matrix not SPD (floorplan degenerate?): %w", err)
	}
	n, total := fp.NumBlocks(), s.csr.N()
	s.p = slices.Grow(s.p[:0], total)[:total]
	var err error
	if s.keys, err = fillPower(s.p, power, s.keys, fp.Index); err != nil {
		return 0, err
	}
	s.rise = slices.Grow(s.rise[:0], total)[:total]
	if err := s.chol.SolveInto(s.rise, s.p); err != nil {
		return 0, fmt.Errorf("hotspot: steady-state solve: %w", err)
	}
	temps := s.rise[:n]
	for i := range temps {
		temps[i] += cfg.AmbientC
	}
	return linalg.Max(temps), nil
}

// assemble checks cfg and fp and logs fp's conductance network into
// s.gb, reset to the network's size; NewModel and SteadyPeak both
// build their matrix from it, so they factor the same bits. When caps
// is non-nil (length 2n+2) it receives the node heat capacities.
func (s *scratch) assemble(fp *floorplan.Floorplan, cfg Config, caps []float64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := fp.Validate(); err != nil {
		return fmt.Errorf("hotspot: %w", err)
	}
	n := fp.NumBlocks()
	total := 2*n + 2
	ring, sink := 2*n, 2*n+1
	spreaderOf := func(i int) int { return n + i }

	// The sparse builder accumulates duplicates in insertion order, so
	// both elimination orders factor the same bits. Its triplet log is
	// recycled across builds and sized before the first Add: at most 8
	// triplets per abutting pair (die and spreader), 12 per block (ring
	// and vertical paths), 4 for ring → sink and 1 for sink → ambient.
	s.adj = fp.Adjacency(s.adj[:0], geom.Eps)
	gb := &s.gb
	gb.Reset(total)
	gb.Grow(8*len(s.adj) + 12*n + 5)
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
	// The pairs come in increasing (i, j) order: float accumulation
	// into the conductance matrix is order-sensitive at the last ulp,
	// so a fixed order is what makes nominally identical models equal
	// between builds (the byte-identical cross-surface contract for
	// heterogeneous floorplans, whose conductances are not all equal).
	s.shared = slices.Grow(s.shared[:0], n)[:n] // total abutting edge length per block
	clear(s.shared)
	for _, a := range s.adj {
		s.shared[a.I] += a.Edge
		s.shared[a.J] += a.Edge
		d := fp.Block(a.I).Rect.Center().Dist(fp.Block(a.J).Rect.Center())
		if d <= 0 {
			continue
		}
		gDie := cfg.SiliconConductivity * cfg.DieThickness * a.Edge / d
		addConductance(a.I, a.J, gDie)
		gSp := cfg.SpreaderConductivity * cfg.SpreaderThickness * a.Edge / d
		addConductance(spreaderOf(a.I), spreaderOf(a.J), gSp)
	}

	// Peripheral spreader ring: each block's spreader region couples to
	// the ring through its exposed (non-abutting) perimeter. Edge blocks
	// therefore sink heat into the package periphery that centre blocks
	// cannot reach directly — the physical reason edge placements run
	// cooler.
	bbox := fp.BoundingBox()
	ringArea := 2 * (bbox.W + bbox.H) * cfg.SpreaderRingWidth
	for i := 0; i < n; i++ {
		r := fp.Block(i).Rect
		exposed := 2*(r.W+r.H) - s.shared[i]
		if exposed <= 0 {
			continue
		}
		// Centre-of-block to centre-of-ring distance.
		d := (math.Sqrt(r.Area()) + cfg.SpreaderRingWidth) / 2
		g := cfg.SpreaderConductivity * cfg.SpreaderThickness * exposed / d
		addConductance(spreaderOf(i), ring, g)
	}

	// Vertical paths. Block → its spreader region: die conduction in
	// series with the interface material. Spreader region → sink: the
	// total spreader-to-sink resistance apportioned by area share.
	var totalArea float64
	for i := 0; i < n; i++ {
		totalArea += fp.Block(i).Rect.Area()
	}
	for i := 0; i < n; i++ {
		area := fp.Block(i).Rect.Area()
		rDie := cfg.DieThickness / (cfg.SiliconConductivity * area)
		rIface := cfg.InterfaceResistivity / area
		addConductance(i, spreaderOf(i), 1/(rDie+rIface))
		rSp := cfg.SpreaderToSinkResistance * totalArea / area
		addConductance(spreaderOf(i), sink, 1/rSp)
		if caps != nil {
			caps[i] = cfg.SiliconVolumetricHeat * area * cfg.DieThickness
			caps[spreaderOf(i)] = cfg.SpreaderVolumetricHeat * area * cfg.SpreaderThickness
		}
	}

	// Ring → sink: the spreader-to-sink resistance scaled by the ring's
	// area share, like the per-block regions.
	if ringArea > 0 {
		rRing := cfg.SpreaderToSinkResistance * totalArea / ringArea
		addConductance(ring, sink, 1/rRing)
	}

	// Sink → ambient. Ambient is the reference node, so the convection
	// conductance appears only on the sink's diagonal.
	gb.Add(sink, sink, 1/cfg.ConvectionResistance)
	if caps != nil {
		caps[ring] = math.Max(cfg.SpreaderVolumetricHeat*ringArea*cfg.SpreaderThickness, 1e-6)
		caps[sink] = cfg.SinkHeatCapacity
	}
	return nil
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
	if _, err := fillPower(p, power, nil, func(name string) (int, bool) {
		i, ok := m.byName[name]
		return i, ok
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// fillPower writes the node-power vector of a name→watts map into p,
// zeroing it first, with index giving each name's block node. Unknown
// names and negative, NaN or infinite powers are errors. keys is
// scratch for the map's names, returned grown for reuse.
func fillPower(p []float64, power map[string]float64, keys []string, index func(string) (int, bool)) ([]string, error) {
	clear(p)
	keys = keys[:0]
	for name := range power {
		keys = append(keys, name)
	}
	// The vector fill writes disjoint indices, but which invalid
	// entry gets reported must not depend on map order: iterate
	// sorted.
	slices.Sort(keys)
	for _, name := range keys {
		w := power[name]
		i, ok := index(name)
		if !ok {
			return keys, fmt.Errorf("hotspot: power for unknown block %q", name)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return keys, fmt.Errorf("hotspot: invalid power %g W for block %q", w, name)
		}
		p[i] = w
	}
	return keys, nil
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
