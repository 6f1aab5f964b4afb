package sched

import (
	"fmt"
	"math"

	"thermalsched/internal/hotspot"
	"thermalsched/internal/linalg"
)

// ModelOracle adapts a hotspot.Model to the ThermalOracle contract the
// thermal-aware ASP consumes. The architecture's PE names must each have
// a same-named block in the model's floorplan (extra blocks are allowed
// and dissipate nothing). A scheduling step's PE candidates are answered
// from the model's influence columns with O(PEs) delta updates instead
// of fresh solves.
//
// Inquiries average over the PEs in use (power > 0), the paper's
// "average temperature of all using PEs"; that is also what keeps the
// inquiry sensitive to how power is distributed, since the all-blocks
// mean of a compact RC network is almost a pure function of total power.
//
// A ModelOracle owns scratch buffers and is therefore NOT safe for
// concurrent use; the flows construct one oracle per run (the underlying
// model may be shared freely).
type ModelOracle struct {
	model *hotspot.Model
	// peToBlock maps architecture PE index to model block index.
	peToBlock []int

	// reach[pe*nPE+j] is the steady-state rise (°C/W) of PE j's block
	// per watt on PE pe's block: entry block(pe) of influence column
	// block(j). Gathered on first SetBase so flows that never issue a
	// thermal inquiry (non-thermal policies build an oracle too, for
	// final metrics) solve no influence column.
	reach []float64

	// Scratch state (reused across calls; zero steady-state allocations).
	blockPower []float64 // power gathered into model block order
	basePE     []float64 // base per-PE power
	baseTemps  []float64 // block temps of the base, °C
	baseSet    bool
}

// NewModelOracle wires an architecture to a thermal model by block name.
// It rejects architectures in which two PEs land on the same block —
// such duplicates (duplicate PE names) are already rejected by
// Architecture.Validate, but the oracle is the layer that would
// otherwise silently mis-attribute their power.
func NewModelOracle(model *hotspot.Model, arch Architecture) (*ModelOracle, error) {
	names := model.BlockNames()
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	peToBlock := make([]int, len(arch.PEs))
	claimed := make(map[int]string, len(arch.PEs))
	for i, pe := range arch.PEs {
		bi, ok := index[pe.Name]
		if !ok {
			return nil, fmt.Errorf("sched: PE %q has no block in the thermal model", pe.Name)
		}
		if prev, dup := claimed[bi]; dup {
			return nil, fmt.Errorf("sched: PEs %q and %q map to the same thermal block", prev, pe.Name)
		}
		claimed[bi] = pe.Name
		peToBlock[i] = bi
	}
	return newModelOracle(model, peToBlock), nil
}

// newModelOracle builds an oracle over an already-validated PE → block
// map.
func newModelOracle(model *hotspot.Model, peToBlock []int) *ModelOracle {
	n, nPE := model.NumBlocks(), len(peToBlock)
	return &ModelOracle{
		model:      model,
		peToBlock:  peToBlock,
		blockPower: make([]float64, n),
		basePE:     make([]float64, nPE),
		baseTemps:  make([]float64, n),
	}
}

// ensureReach gathers every PE's reach from the influence columns of
// the PE blocks, solving each column on first use.
func (o *ModelOracle) ensureReach() error {
	if o.reach != nil {
		return nil
	}
	nPE := len(o.peToBlock)
	reach := make([]float64, nPE*nPE)
	for j, bj := range o.peToBlock {
		col, err := o.model.InfluenceRow(bj)
		if err != nil {
			return err
		}
		for pe, bpe := range o.peToBlock {
			reach[pe*nPE+j] = col[bpe]
		}
	}
	o.reach = reach
	return nil
}

// gather accumulates per-PE powers into the block-order scratch vector.
// Accumulation (not assignment) keeps the oracle correct even if several
// PEs ever share one block.
func (o *ModelOracle) gather(pePower []float64) []float64 {
	for i := range o.blockPower {
		o.blockPower[i] = 0
	}
	for i, w := range pePower {
		o.blockPower[o.peToBlock[i]] += w
	}
	return o.blockPower
}

// SetBase implements ThermalOracle: it solves the shared base power
// vector once so AvgTempDelta can answer each candidate from it.
func (o *ModelOracle) SetBase(pePower []float64) error {
	if len(pePower) != len(o.peToBlock) {
		return fmt.Errorf("sched: oracle got %d powers for %d PEs", len(pePower), len(o.peToBlock))
	}
	if err := o.ensureReach(); err != nil {
		return err
	}
	if err := o.model.SteadyStateInto(o.baseTemps, o.gather(pePower)); err != nil {
		o.baseSet = false
		return err
	}
	copy(o.basePE, pePower)
	o.baseSet = true
	return nil
}

// AvgTempDelta implements ThermalOracle: the steady-state temperature
// of the base vector with deltaW added to PE pe, averaged over the PEs
// in use, answered from the PE's reach instead of a solve — O(PEs) and
// allocation-free. When no PE is in use the average falls back to all
// blocks.
func (o *ModelOracle) AvgTempDelta(pe int, deltaW float64) (float64, error) {
	if !o.baseSet {
		return 0, fmt.Errorf("sched: AvgTempDelta before SetBase")
	}
	nPE := len(o.peToBlock)
	if pe < 0 || pe >= nPE {
		return 0, fmt.Errorf("sched: AvgTempDelta PE %d out of range [0,%d)", pe, nPE)
	}
	if deltaW < 0 || math.IsNaN(deltaW) || math.IsInf(deltaW, 0) {
		return 0, fmt.Errorf("sched: AvgTempDelta invalid power delta %g W", deltaW)
	}
	// Adding deltaW on PE pe's block raises PE j's block by
	// reach[j]·deltaW.
	reach := o.reach[pe*nPE : (pe+1)*nPE]
	var sum float64
	n := 0
	for j, w := range o.basePE {
		if j == pe {
			w += deltaW
		}
		if w > 0 {
			sum += o.baseTemps[o.peToBlock[j]] + reach[j]*deltaW
			n++
		}
	}
	if n > 0 {
		return sum / float64(n), nil
	}
	// No PE in use: deltaW is zero, so the base temperatures stand.
	return linalg.Mean(o.baseTemps), nil
}

// Temps returns the full steady-state temperatures for a per-PE power
// vector — used when reporting the final schedule's thermal profile.
// It takes the direct solve: reporting happens once per run, and a
// single triangular solve is cheaper than solving an influence column
// per powered PE for flows that never inquire (non-thermal policies).
func (o *ModelOracle) Temps(pePower []float64) (hotspot.Temps, error) {
	if len(pePower) != len(o.peToBlock) {
		return hotspot.Temps{}, fmt.Errorf("sched: oracle got %d powers for %d PEs", len(pePower), len(o.peToBlock))
	}
	return o.model.SteadyStateDirect(o.gather(pePower))
}
