package hotspot

import (
	"fmt"
	"math"
	"sort"
	"sync"

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
	solv  *linalg.SparseCholesky // steady-state factor, ordered per cfg.SolverKind
	caps  []float64              // node heat capacities (transient)

	// order is the min-degree elimination order of csr. Sparse-backend
	// models compute it in NewModel for the steady factor; dense-backend
	// models compute it on their first transient factor, under stepMu.
	order []int

	// Influence matrix: because the RC network is linear, steady-state
	// block temperature rise is an affine function of block power,
	// rise = S·p with S[i][j] = (G⁻¹)[i][j] restricted to block nodes.
	// The dense backend computes all of S lazily (n triangular solves
	// on the natural-order factor, once per model) and answers every
	// inquiry with n² multiply-adds.
	influOnce sync.Once
	influ     []float64 // n×n row-major; symmetric since G is
	influErr  error

	// Truncated influence representation (sparse backend): rows of
	// S are solved and cached one at a time, on demand, so a scheduler
	// touching k blocks holds k rows instead of the n×n matrix, and an
	// inquiry with k powered blocks costs k·n multiply-adds instead of
	// n² — the property that keeps per-candidate cost O(PEs) at grid
	// resolutions the dense influence matrix can't hold.
	truncated bool
	rowMu     sync.RWMutex
	rowCache  map[int][]float64

	// Transient memo, per step size (most recently used first, at most
	// maxStepMemos entries): the backward-Euler factorization every
	// Transient at that step shares, and the unit-step self-rise curves
	// StepRise extends on demand.
	stepMu    sync.Mutex
	stepMemos []*stepMemo
}

// NewModel builds the thermal network for fp under cfg. The floorplan
// must be valid (non-empty, no overlaps).
func NewModel(fp *floorplan.Floorplan, cfg Config) (*Model, error) {
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
	}
	for i, name := range m.names {
		m.byName[name] = i
	}

	// Assembly goes through the sparse builder for every backend, which
	// accumulates duplicates in insertion order: both backends factor
	// the same bits and differ only in elimination order and influence
	// representation.
	gb := linalg.NewSparseBuilder(total)
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
	adj := fp.Adjacency(geom.Eps)
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
	// The dense backend factors in natural order; the sparse one under
	// a min-degree order, with truncated influence rows.
	if cfg.SolverKind() == SolverSparse {
		m.order = linalg.MinDegreeOrdering(m.csr)
		m.truncated = true
		m.rowCache = make(map[int][]float64)
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
// node order (length NumBlocks). It rides the influence-matrix fast
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
// allocating: one row of the cached influence matrix per output block.
// dst and power must not alias. This is the form behind every thermal
// inquiry of the thermal-aware ASP.
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
	n := m.n
	pw := power[:n]
	out := dst[:n]
	ambient := m.cfg.AmbientC
	if m.truncated {
		// Truncated influence: by symmetry of G⁻¹, the inquiry is the
		// powered-block-weighted sum of cached influence rows —
		// k·n multiply-adds for k powered blocks (k ≈ PEs ≪ n on large
		// platforms). The sum visits j in the same increasing order the
		// dense inner product does, skipping only exact-zero terms.
		for i := range out {
			out[i] = 0
		}
		for j, w := range pw {
			if w == 0 {
				continue
			}
			row, err := m.influenceRowCached(j)
			if err != nil {
				return err
			}
			row = row[:len(out)]
			for i := range out {
				out[i] += row[i] * w
			}
		}
		for i := range out {
			out[i] += ambient
		}
		return nil
	}
	if err := m.ensureInfluence(); err != nil {
		return err
	}
	for i := range out {
		// Re-slicing the row to len(pw) lets the compiler elide the
		// bounds checks in the inner product — the entire inquiry cost.
		row := m.influ[i*n:]
		row = row[:len(pw)]
		var s float64
		for j, w := range pw {
			s += row[j] * w
		}
		out[i] = s + ambient
	}
	return nil
}

// SteadyStateDirect is the reference steady-state path: a full
// triangular solve against the cached Cholesky factorization per call.
// The influence-matrix fast path is verified against it in tests; it
// also lets single-shot callers (one inquiry per model) skip the n
// solves an influence build costs.
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

// ensureInfluence computes the block-restricted inverse-conductance
// matrix: n triangular solves against unit block loads, done once per
// model (thread-safe; cached models shared across concurrent runs pay
// for it a single time).
func (m *Model) ensureInfluence() error {
	m.influOnce.Do(func() {
		s := make([]float64, m.n*m.n)
		e := make([]float64, m.total)
		x := make([]float64, m.total)
		for j := 0; j < m.n; j++ {
			e[j] = 1
			if err := m.solv.SolveInto(x, e); err != nil {
				m.influErr = fmt.Errorf("hotspot: influence matrix solve: %w", err)
				return
			}
			e[j] = 0
			for i := 0; i < m.n; i++ {
				s[i*m.n+j] = x[i]
			}
		}
		m.influ = s
	})
	return m.influErr
}

// InfluenceRow returns row i of the influence matrix: the steady-state
// temperature rise of block i per watt injected into each block. The
// matrix is symmetric (G is), so row i is also block i's column of heat
// reach. Under the dense backend the whole matrix is built on first
// use; under the sparse backend only the requested row is solved
// and cached. The returned slice is shared read-only state — callers
// must not modify it.
func (m *Model) InfluenceRow(i int) ([]float64, error) {
	if i < 0 || i >= m.n {
		return nil, fmt.Errorf("hotspot: influence row %d out of range [0,%d)", i, m.n)
	}
	if m.truncated {
		return m.influenceRowCached(i)
	}
	if err := m.ensureInfluence(); err != nil {
		return nil, err
	}
	return m.influ[i*m.n : (i+1)*m.n], nil
}

// influenceRowCached returns (solving and caching on first request)
// influence row j under the truncated representation. The read path is
// an RLock plus a map probe — allocation-free once the row is warm.
func (m *Model) influenceRowCached(j int) ([]float64, error) {
	m.rowMu.RLock()
	row, ok := m.rowCache[j]
	m.rowMu.RUnlock()
	if ok {
		return row, nil
	}
	m.rowMu.Lock()
	defer m.rowMu.Unlock()
	if row, ok := m.rowCache[j]; ok {
		return row, nil
	}
	e := make([]float64, m.total)
	x := make([]float64, m.total)
	e[j] = 1
	if err := m.solv.SolveInto(x, e); err != nil {
		return nil, fmt.Errorf("hotspot: influence row solve: %w", err)
	}
	row = make([]float64, m.n)
	copy(row, x[:m.n])
	m.rowCache[j] = row
	return row, nil
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

// ConductanceNNZ returns the number of structural nonzeros of the
// sparse conductance matrix, for diagnostics and sparsity assertions.
func (m *Model) ConductanceNNZ() int { return m.csr.NNZ() }
