// Package coloop is the shared closed-loop co-simulation core under
// internal/runtime (the batch "simulate" flow) and internal/stream (the
// online dispatcher). Both co-simulators advance the same outer loop:
// simulated time moves in fixed steps of DT schedule units; inside each
// step the client runs its own micro event loop (dispatching, advancing
// and completing work) while depositing the energy every PE actually
// drew into StepEnergy; then the transient thermal RC model steps once
// over the implied block power, the new temperatures become visible
// (one-step sensing delay), and the thermal supervisor sets the next
// step's per-block throttle scales. The core owns that outer loop —
// stepping, energy-to-power accumulation, peak tracking, warm start,
// stall bounding and context polling — so the two executors differ only
// in their micro loops, and both start work through its admission Gate.
//
// Determinism is the core's first constraint: the accumulation order of
// every float sum is fixed (PE index order, block index order), so a
// client refactored onto the core produces byte-identical results to
// the loop it replaced, and results never depend on parallelism.
package coloop

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"thermalsched/internal/dtm"
	"thermalsched/internal/hotspot"
)

// DrawFactors draws n execution-time factors, uniform on
// [minFactor, 1], consuming exactly one rng variate per factor in index
// order. This is the single seeded duration-draw contract of both
// co-simulators: runtime.Realize and the online dispatcher
// (internal/stream) draw factor i for task/job i from the i-th variate
// of a source seeded with their Seed verbatim, so the two subsystems
// realize identical factor sequences from identical seeds.
func DrawFactors(rng *rand.Rand, n int, minFactor float64) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = minFactor + (1-minFactor)*rng.Float64()
	}
	return f
}

// ctxCheckInterval is how many steps pass between context polls.
const ctxCheckInterval = 256

// Config parameterizes one closed-loop core.
type Config struct {
	// Model is the thermal RC model; PEBlock maps each PE index to its
	// model block (see PEBlocks).
	Model   *hotspot.Model
	PEBlock []int
	// DT is the co-simulation step in schedule time units; TimeScale
	// converts one schedule time unit into seconds of thermal
	// simulation, so the transient integrates with step DT × TimeScale.
	DT        float64
	TimeScale float64
	// MaxSteps bounds the stepped loop as a safety net against a
	// supervisor that throttles the run to a standstill; required > 0
	// (clients derive their own generous defaults from the workload).
	MaxSteps int
	// Supervisor throttles per-block power. When it is also a
	// dtm.Supervisor, Gate builds an admission gate that asks it before
	// every start. Nil disables thermal management — every PE runs at
	// full speed, the unthrottled reference.
	Supervisor dtm.Controller
	// TrackPerPE enables the PerPEEnergy split (the batch simulator
	// reports it; the stream dispatcher does not).
	TrackPerPE bool
}

// Hooks is the client half of the loop: the micro event loop and its
// error surfaces. Done, Step, Stalled and Cancelled are required;
// Observe is optional.
type Hooks struct {
	// Done reports whether the workload is finished; the loop exits
	// without stepping further.
	Done func() bool
	// Step runs the client's micro event loop over [now, stepEnd),
	// depositing every PE's drawn energy into Core.StepEnergy (zeroed
	// before each call) and reading Core.Scale for throttle rates.
	Step func(now, stepEnd float64) error
	// Observe sees the fresh temperatures right after the thermal step,
	// before the supervisor updates the scales — for per-step client
	// statistics. Nil means no observation.
	Observe func(temps []float64)
	// Stalled builds the client's error for a run exceeding MaxSteps.
	Stalled func(steps int) error
	// Cancelled wraps a context cancellation in the client's error.
	Cancelled func(cause error) error
}

// Core is one closed-loop co-simulation in progress. The exported
// slices are the client contract: Step fills StepEnergy (per PE, in
// energy units = power × schedule time) and reads Scale (per block,
// frozen for the step); Temps always holds the last sensed block
// temperatures (ambient before the first step).
type Core struct {
	cfg Config
	tr  *hotspot.Transient

	StepEnergy []float64
	Scale      []float64
	Temps      []float64
	blockPower []float64

	// Accumulated results, in the same order the pre-core loops
	// accumulated them.
	Energy      float64
	PerPEEnergy []float64 // non-nil iff cfg.TrackPerPE
	PeakTempC   float64
	Steps       int
	now         float64
	stepEnd     float64
	gate        *Gate // nil unless Gate built one
}

// New validates the configuration and builds a ready core: transient
// state at ambient, scales at full speed, supervisor reset.
func New(cfg Config) (*Core, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("coloop: nil thermal model")
	}
	if !(cfg.DT > 0) {
		return nil, fmt.Errorf("coloop: step DT must be positive, got %g", cfg.DT)
	}
	if !(cfg.TimeScale > 0) {
		return nil, fmt.Errorf("coloop: TimeScale must be positive, got %g", cfg.TimeScale)
	}
	if cfg.MaxSteps <= 0 {
		return nil, fmt.Errorf("coloop: MaxSteps must be positive, got %d", cfg.MaxSteps)
	}
	nb := cfg.Model.NumBlocks()
	for pe, b := range cfg.PEBlock {
		if b < 0 || b >= nb {
			return nil, fmt.Errorf("coloop: PE %d maps to block %d of %d", pe, b, nb)
		}
	}
	tr, err := cfg.Model.NewTransient(cfg.DT * cfg.TimeScale)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:        cfg,
		tr:         tr,
		StepEnergy: make([]float64, len(cfg.PEBlock)),
		Scale:      make([]float64, nb),
		Temps:      make([]float64, nb),
		blockPower: make([]float64, nb),
		PeakTempC:  math.Inf(-1),
	}
	for i := range c.Scale {
		c.Scale[i] = 1
	}
	ambient := cfg.Model.Config().AmbientC
	for i := range c.Temps {
		c.Temps[i] = ambient
	}
	if cfg.TrackPerPE {
		c.PerPEEnergy = make([]float64, len(cfg.PEBlock))
	}
	if cfg.Supervisor != nil {
		cfg.Supervisor.Reset()
	}
	return c, nil
}

// WarmStart initializes the thermal state to the steady-state operating
// point of the given per-block average power, modeling a die that has
// been running the workload for a while. Call before Run.
func (c *Core) WarmStart(blockAvg []float64) error {
	rise, err := c.cfg.Model.SteadyNodeRise(blockAvg)
	if err != nil {
		return err
	}
	return c.tr.SetRise(rise)
}

// Run drives the outer loop until the client reports done: zero the
// step energies, run the client's micro loop, step the thermal model
// over the drawn power, track the peak, let the client observe, and
// have the supervisor set the next step's scales.
func (c *Core) Run(ctx context.Context, h Hooks) error {
	if h.Done == nil || h.Step == nil || h.Stalled == nil || h.Cancelled == nil {
		return fmt.Errorf("coloop: incomplete hooks (Done, Step, Stalled and Cancelled are required)")
	}
	for !h.Done() {
		if c.Steps >= c.cfg.MaxSteps {
			return h.Stalled(c.Steps)
		}
		if c.Steps%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return h.Cancelled(err)
			}
		}
		c.stepEnd = c.now + c.cfg.DT
		for pe := range c.StepEnergy {
			c.StepEnergy[pe] = 0
		}
		if c.gate != nil {
			c.gate.held = c.gate.held[:0] // every hold ends with its step
		}
		if err := h.Step(c.now, c.stepEnd); err != nil {
			return err
		}

		// Thermal step over the energy the PEs actually drew; the new
		// temperatures become visible to the client and the supervisor —
		// the one-step sensing delay of a real DTM loop.
		for i := range c.blockPower {
			c.blockPower[i] = 0
		}
		for pe, e := range c.StepEnergy {
			c.blockPower[c.cfg.PEBlock[pe]] += e / c.cfg.DT
			if c.PerPEEnergy != nil {
				c.PerPEEnergy[pe] += e
			}
			c.Energy += e
		}
		if err := c.tr.StepVecInto(c.Temps, c.blockPower); err != nil {
			return err
		}
		for _, t := range c.Temps {
			if t > c.PeakTempC {
				c.PeakTempC = t
			}
		}
		if h.Observe != nil {
			h.Observe(c.Temps)
		}
		if c.cfg.Supervisor != nil {
			if err := c.cfg.Supervisor.ScaleInto(c.Scale, c.Temps); err != nil {
				return err
			}
		}
		c.Steps++
		c.now = c.stepEnd
	}
	return nil
}

// PEBlocks maps PE names to thermal-model block indices by name. The
// returned error is unprefixed; callers wrap it with their package
// prefix.
func PEBlocks(model *hotspot.Model, peNames []string) ([]int, error) {
	names := model.BlockNames()
	blockOf := make(map[string]int, len(names))
	for i, n := range names {
		blockOf[n] = i
	}
	out := make([]int, len(peNames))
	for i, n := range peNames {
		bi, ok := blockOf[n]
		if !ok {
			return nil, fmt.Errorf("PE %q has no block in the thermal model", n)
		}
		out[i] = bi
	}
	return out, nil
}
