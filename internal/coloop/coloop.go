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
// in their micro loops.
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

	"thermalsched/internal/dtm"
	"thermalsched/internal/hotspot"
)

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
	// Supervisor throttles per-block power and answers admission
	// queries. Nil disables thermal management — every PE runs at full
	// speed, the unthrottled reference.
	Supervisor dtm.Supervisor
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

// Supervisor returns the configured supervisor (nil when thermal
// management is disabled) for clients that query admissions.
func (c *Core) Supervisor() dtm.Supervisor { return c.cfg.Supervisor }

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
		stepEnd := c.now + c.cfg.DT
		for pe := range c.StepEnergy {
			c.StepEnergy[pe] = 0
		}
		if err := h.Step(c.now, stepEnd); err != nil {
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
		c.now = stepEnd
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

// SelfInfluence returns, per PE, the steady-state temperature rise of
// the PE's own block per watt drawn on it — the forecast slope
// predictive admission multiplies by a candidate task's power. Rows
// come from the model's influence matrix (lazily built, shared,
// read-only).
func SelfInfluence(model *hotspot.Model, peBlock []int) ([]float64, error) {
	out := make([]float64, len(peBlock))
	for pe, b := range peBlock {
		row, err := model.InfluenceRow(b)
		if err != nil {
			return nil, err
		}
		out[pe] = row[b]
	}
	return out, nil
}

// riseCurveCap bounds the sampled horizon of a RiseForecaster: tasks
// longer than riseCurveCap steps clamp to the last sample, which by
// then is sink-paced and nearly flat at task timescales.
const riseCurveCap = 4096

// RiseForecaster turns the influence oracle's steady-state slope into
// a duration-aware admission forecast. The slope is the asymptote of a
// block's unit-step response, but the thermal network is two-tier: the
// die block answers in fractions of a second while the shared
// spreader/sink leg — which dominates the steady-state resistance —
// moves over minutes. A task-length draw therefore realizes only the
// fast-tier fraction of its asymptotic rise, and gating on the
// asymptote collapses predictive admission into one more temperature
// threshold (every task's forecast clears the band, however short the
// task). The forecaster reads each PE block's actual unit-step
// self-response on the model's own integrator, so the rise a
// supervisor is quoted is the rise the candidate could physically
// cause within its worst-case duration.
type RiseForecaster struct {
	dtSec  float64
	curves [][]float64 // per PE: self-rise (K/W) after step i+1 of 1 W, shared read-only
}

// NewRiseForecaster looks up the unit-step self-response of every PE
// block at dtSec granularity out to maxDurSec (clamped to riseCurveCap
// steps). The curves come from the model's memo (hotspot.Model.StepRise),
// so after the first run on a model this is a lookup, and blocks shared
// by several PEs share one curve.
func NewRiseForecaster(model *hotspot.Model, peBlock []int, dtSec, maxDurSec float64) (*RiseForecaster, error) {
	if !(dtSec > 0) {
		return nil, fmt.Errorf("coloop: forecaster step %g must be positive", dtSec)
	}
	steps := int(math.Ceil(maxDurSec / dtSec))
	if steps < 1 {
		steps = 1
	}
	if steps > riseCurveCap {
		steps = riseCurveCap
	}
	f := &RiseForecaster{dtSec: dtSec, curves: make([][]float64, len(peBlock))}
	for pe, b := range peBlock {
		curve, err := model.StepRise(b, dtSec, steps)
		if err != nil {
			return nil, err
		}
		f.curves[pe] = curve
	}
	return f, nil
}

// Rise forecasts the self-rise (°C) a draw of power watts sustained
// for durSec seconds causes on the PE's block, rounding the horizon up
// to the next sampled step (worst case within the grid) and clamping
// beyond the sampled range.
func (f *RiseForecaster) Rise(pe int, power, durSec float64) float64 {
	curve := f.curves[pe]
	idx := int(math.Ceil(durSec/f.dtSec)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(curve) {
		idx = len(curve) - 1
	}
	return power * curve[idx]
}
