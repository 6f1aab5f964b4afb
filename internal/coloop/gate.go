package coloop

import (
	"math"

	"thermalsched/internal/dtm"
	"thermalsched/internal/hotspot"
)

// Gate is the one admission gate of the closed-loop dispatchers: it
// forecasts each candidate start's rise, asks the supervisor, holds
// refused PEs and counts the refusals. A nil *Gate (no controller, or a
// reactive one) admits everything and holds nothing.
//
// The hold rule: a denial at t holds its PE until min(Admission.Until,
// end of the current sensing step). While held, the PE is refused
// without asking (dtm.Supervisor.Admit promises the same answer); a new
// step brings fresh temperatures, so a PE under embargo is asked again.
type Gate struct {
	core    *Core
	sup     dtm.Supervisor
	dtSec   float64
	curves  [][]float64 // per PE: see riseCurves
	expiry  []float64   // per PE: hold expiry, loop time
	held    []int       // PEs that took a hold in the current step, once each
	denials int
}

// Gate builds the run's gate, forecasting rises for tasks of up to
// maxDur schedule units, or returns nil unless the configured
// controller is a dtm.Supervisor. Build it before Run.
func (c *Core) Gate(maxDur float64) (*Gate, error) {
	sup, ok := c.cfg.Supervisor.(dtm.Supervisor)
	if !ok {
		return nil, nil
	}
	dtSec := c.cfg.DT * c.cfg.TimeScale
	curves, err := riseCurves(c.cfg.Model, c.cfg.PEBlock, dtSec, maxDur*c.cfg.TimeScale)
	if err != nil {
		return nil, err
	}
	n := len(c.cfg.PEBlock)
	c.gate = &Gate{core: c, sup: sup, dtSec: dtSec, curves: curves,
		expiry: make([]float64, n), held: make([]int, 0, n)}
	return c.gate, nil
}

// Admit reports whether a task drawing power watts for up to dur
// schedule units may start on pe at t, a time in the current step, and
// whether a refusal put pe under a new hold. Every refusal counts once
// toward Denials, whether the supervisor or a hold made it.
func (g *Gate) Admit(pe int, power, dur, t float64) (ok, armed bool) {
	if g == nil {
		return true, false
	}
	if c := g.core; g.expiry[pe] <= t {
		adm := g.sup.Admit(c.cfg.PEBlock[pe], c.Temps,
			g.rise(pe, power, dur*c.cfg.TimeScale), t)
		if adm.OK {
			return true, false
		}
		if until := min(adm.Until, c.stepEnd); until > t {
			if g.expiry[pe] <= c.now { // pe's first hold in this step
				g.held = append(g.held, pe)
			}
			g.expiry[pe], armed = until, true
		}
	}
	g.denials++
	return false, armed
}

// Expiry is the loop time pe's hold runs to: pe is held at t while
// Expiry(pe) > t. A nil gate reports -Inf.
func (g *Gate) Expiry(pe int) float64 {
	if g == nil {
		return math.Inf(-1)
	}
	return g.expiry[pe]
}

// Held lists the PEs that took a hold in the current step, each once;
// one is still held at t while its Expiry is after t. Holds end with
// their step, so the list is short and never spans every PE.
func (g *Gate) Held() []int {
	if g == nil {
		return nil
	}
	return g.held
}

// Deny counts n refusals a dispatcher did not ask for because every PE
// it would ask is held.
func (g *Gate) Deny(n int) {
	if g != nil {
		g.denials += n
	}
}

// Denials is the number of refused asks so far.
func (g *Gate) Denials() int {
	if g == nil {
		return 0
	}
	return g.denials
}

// riseCurveCap bounds the sampled forecast horizon: tasks longer than
// riseCurveCap steps clamp to the last sample, which by then is
// sink-paced and nearly flat at task timescales.
const riseCurveCap = 4096

// riseCurves samples every PE block's unit-step self-response (K/W
// after step i+1 of 1 W) at dtSec out to maxDurSec, clamped to
// riseCurveCap steps, from the model's read-only memo
// (hotspot.Model.StepRise). The die block answers in fractions of a
// second while the spreader/sink leg, which dominates the steady-state
// resistance, moves over minutes, so the curve quotes the rise a task
// can cause within its duration; the steady-state asymptote would turn
// admission into one more temperature threshold.
func riseCurves(model *hotspot.Model, peBlock []int, dtSec, maxDurSec float64) ([][]float64, error) {
	steps := min(max(int(math.Ceil(maxDurSec/dtSec)), 1), riseCurveCap)
	curves := make([][]float64, len(peBlock))
	for pe, b := range peBlock {
		curve, err := model.StepRise(b, dtSec, steps)
		if err != nil {
			return nil, err
		}
		curves[pe] = curve
	}
	return curves, nil
}

// rise forecasts the self-rise (°C) of power watts drawn on pe's block
// for durSec seconds, rounding the horizon up to the next sample and
// clamping beyond the sampled range.
func (g *Gate) rise(pe int, power, durSec float64) float64 {
	curve := g.curves[pe]
	return power * curve[min(max(int(math.Ceil(durSec/g.dtSec))-1, 0), len(curve)-1)]
}
