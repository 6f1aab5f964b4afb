package dtm

import (
	"fmt"
	"math"
)

// ThermalState is one rung of the supervisor's temperature ladder. The
// graduated states follow the proactive-DTM shape (nominal → fair →
// serious → critical): reactive controllers only ever distinguish
// "too hot" from "fine", while a supervisor can throttle gently at
// serious, hard at critical, and refuse new work before either.
type ThermalState int

const (
	// StateNominal: comfortably below every threshold.
	StateNominal ThermalState = iota
	// StateFair: warm — still full speed, but admission forecasting
	// starts to matter.
	StateFair
	// StateSerious: above the serious threshold — graduated throttling
	// and admission denial.
	StateSerious
	// StateCritical: above the critical threshold — hard throttling.
	StateCritical
)

// String names the state for reports and logs.
func (s ThermalState) String() string {
	switch s {
	case StateNominal:
		return "nominal"
	case StateFair:
		return "fair"
	case StateSerious:
		return "serious"
	case StateCritical:
		return "critical"
	}
	return fmt.Sprintf("ThermalState(%d)", int(s))
}

// Ladder holds the three ascending temperature thresholds that split
// the temperature axis into the four thermal states.
type Ladder struct {
	FairC     float64 // nominal below, fair at or above
	SeriousC  float64 // serious at or above
	CriticalC float64 // critical at or above
}

// DefaultLadder is the calibrated ladder for the paper-scale platforms:
// serious sits at the simulate flow's historical 80 °C trigger, fair a
// comfortable margin below, critical at the hard-throttle point.
var DefaultLadder = Ladder{FairC: 72, SeriousC: 80, CriticalC: 88}

// Validate checks that the thresholds ascend strictly.
func (l Ladder) Validate() error {
	if !(l.FairC < l.SeriousC && l.SeriousC < l.CriticalC) {
		return fmt.Errorf("dtm: ladder thresholds must ascend (fair %g, serious %g, critical %g)",
			l.FairC, l.SeriousC, l.CriticalC)
	}
	return nil
}

// Classify maps a temperature onto the ladder.
func (l Ladder) Classify(tempC float64) ThermalState {
	switch {
	case tempC >= l.CriticalC:
		return StateCritical
	case tempC >= l.SeriousC:
		return StateSerious
	case tempC >= l.FairC:
		return StateFair
	}
	return StateNominal
}

// Admission is a supervisor's answer to "may this task start on that
// block now?".
type Admission struct {
	// OK grants the start. When false, Until is the absolute loop time
	// before which asking again is pointless (see Supervisor.Admit); an
	// absolute time lets a later query re-report a hold exactly.
	OK    bool
	Until float64
	// State is the block's thermal state at decision time.
	State ThermalState
}

// Supervisor is the proactive thermal-management contract: a
// Controller (per-block throttle factors, one-step sensing delay) that
// also answers admission queries before work is dispatched, classifying
// the block on the thermal ladder in each answer. AdmitController and
// ZigZagController implement it; the reactive ToggleController and
// PIController are plain Controllers and never refuse a start.
type Supervisor interface {
	Controller
	// Admit decides whether a task predicted to raise block b's
	// temperature by riseC may start now (the caller's loop time).
	// Implementations may record per-block hold state; Reset clears it.
	//
	// A denial holds: every later query of block b, with the same temps
	// and whatever riseC, at a time before Until and before the next
	// ScaleInto or Reset, is denied too. The admission gate
	// (internal/coloop) relies on this to hold a refused PE until
	// min(Until, end of the sensing step) and refuse it there without
	// asking. A denial with Until <= now promises nothing.
	Admit(b int, temps []float64, riseC, now float64) Admission
}

// AdmitController is predictive admission control: instead of throttling
// after a threshold trips, it refuses the starts whose forecast rise
// (supplied by the caller — the thermal model's unit-step self-response
// over the task's worst-case duration) would push the block to serious;
// the work waits at full speed rather than crawling at a throttle
// fraction. Throttling still exists as a safety net with graduated
// per-state factors for when the forecast is beaten by transients.
// State classification is sticky: promotions are immediate, but a block
// leaves a state only after cooling Hysteresis below the state's entry
// threshold — the same trip-and-release shape as the reactive toggle,
// so duels between the two measure admission, not band bookkeeping.
type AdmitController struct {
	Ladder Ladder
	// SeriousScale and CriticalScale are the graduated throttle factors
	// applied while a block sits in the corresponding state (nominal and
	// fair run at full power).
	SeriousScale  float64
	CriticalScale float64
	// RetryAfter is the admission hold, in loop time units: a denied
	// block refuses further starts until the hold expires, so callers
	// can sleep instead of re-asking every event.
	RetryAfter float64
	// Hysteresis is the demotion margin, °C: a block demotes one state
	// only once its temperature falls Hysteresis below that state's
	// entry threshold.
	Hysteresis float64

	embargo []float64      // per-block admission hold expiry, loop time
	state   []ThermalState // per-block sticky state, ScaleInto-owned
}

// NewAdmitController validates and builds an admission controller.
func NewAdmitController(l Ladder, seriousScale, criticalScale, retryAfter, hysteresis float64) (*AdmitController, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if !(0 <= seriousScale && seriousScale <= 1 && 0 <= criticalScale && criticalScale <= 1) {
		return nil, fmt.Errorf("dtm: admission scales (serious %g, critical %g) out of [0, 1]",
			seriousScale, criticalScale)
	}
	if !(retryAfter > 0) {
		return nil, fmt.Errorf("dtm: admission RetryAfter %g must be positive", retryAfter)
	}
	if !(hysteresis >= 0) {
		return nil, fmt.Errorf("dtm: admission Hysteresis %g must be non-negative", hysteresis)
	}
	return &AdmitController{
		Ladder:        l,
		SeriousScale:  seriousScale,
		CriticalScale: criticalScale,
		RetryAfter:    retryAfter,
		Hysteresis:    hysteresis,
	}, nil
}

// entry returns a state's entry threshold on the ladder.
func (c *AdmitController) entry(s ThermalState) float64 {
	switch s {
	case StateCritical:
		return c.Ladder.CriticalC
	case StateSerious:
		return c.Ladder.SeriousC
	}
	return c.Ladder.FairC
}

// stickyState classifies temperature t for a block previously in prev:
// promotions are immediate; demotions descend one rung at a time, each
// requiring t to fall Hysteresis below the rung's entry threshold.
func (c *AdmitController) stickyState(prev ThermalState, t float64) ThermalState {
	raw := c.Ladder.Classify(t)
	if raw >= prev {
		return raw
	}
	for prev > raw && t < c.entry(prev)-c.Hysteresis {
		prev--
	}
	return prev
}

// buffers lazily sizes the per-block state the controller carries.
func (c *AdmitController) buffers(n int) {
	if c.embargo == nil {
		c.embargo = make([]float64, n)
		c.state = make([]ThermalState, n)
	}
}

// ScaleInto implements Controller: graduated throttle factors per
// sticky state. ScaleInto owns the state memory — it runs once per
// sensing step, so demotions happen at the controller cadence.
func (c *AdmitController) ScaleInto(out, temps []float64) error {
	state := -1
	if c.embargo != nil {
		state = len(c.embargo)
	}
	if err := scaleBuffers(out, temps, state); err != nil {
		return err
	}
	c.buffers(len(temps))
	for i, t := range temps {
		c.state[i] = c.stickyState(c.state[i], t)
		switch c.state[i] {
		case StateCritical:
			out[i] = c.CriticalScale
		case StateSerious:
			out[i] = c.SeriousScale
		default:
			out[i] = 1
		}
	}
	return nil
}

// Reset implements Controller: admission holds and sticky states never
// leak across runs.
func (c *AdmitController) Reset() { c.embargo, c.state = nil, nil }

// Admit implements Supervisor: deny when the block is already at
// serious, or when it is fair (warm) and the forecast rise would take it
// to serious. A nominal block always admits — the steady-state forecast
// is a worst case (it assumes the task runs to thermal equilibrium), so
// gating it on the block already being warm is what keeps admission
// from deadlocking a cold platform while still refusing the starts that
// would tip a warm block over. A denial arms the block's retry-after
// hold; re-asking during the hold is answered from the hold without
// extending it.
func (c *AdmitController) Admit(b int, temps []float64, riseC, now float64) Admission {
	c.buffers(len(temps))
	st := c.stickyState(c.state[b], temps[b])
	if hold := c.embargo[b]; hold > now {
		return Admission{Until: hold, State: st}
	}
	if st >= StateSerious || (st >= StateFair && c.Ladder.Classify(temps[b]+riseC) >= StateSerious) {
		c.embargo[b] = now + c.RetryAfter
		return Admission{Until: c.embargo[b], State: st}
	}
	return Admission{OK: true, State: st}
}

// ZigZagController implements idle-slack cooling in the style of
// Chrobak et al. (arXiv 0801.4238): a block that reaches the serious
// threshold is forced through a fixed-length cooling gap (power cut to
// CoolScale, new starts refused), then resumes full-speed work —
// alternating hot work phases with idle slack instead of running
// continuously at a fractional throttle.
type ZigZagController struct {
	Ladder Ladder
	// CoolSteps is the forced gap length in controller steps.
	CoolSteps int
	// CoolScale is the power multiplier during a gap (typically 0 — a
	// true idle gap).
	CoolScale float64

	cooling []int // remaining gap steps per block
}

// NewZigZagController validates and builds a zig-zag controller.
// coolTime is the gap length in loop time units; it is rounded up to
// whole controller steps of stepTime.
func NewZigZagController(l Ladder, coolTime, stepTime, coolScale float64) (*ZigZagController, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if !(coolTime > 0) || !(stepTime > 0) {
		return nil, fmt.Errorf("dtm: zig-zag times must be positive (coolTime %g, stepTime %g)", coolTime, stepTime)
	}
	if !(0 <= coolScale && coolScale < 1) {
		return nil, fmt.Errorf("dtm: zig-zag CoolScale %g out of [0, 1)", coolScale)
	}
	steps := int(math.Ceil(coolTime / stepTime))
	if steps < 1 {
		steps = 1
	}
	return &ZigZagController{Ladder: l, CoolSteps: steps, CoolScale: coolScale}, nil
}

// ScaleInto implements Controller: entering serious arms a cooling gap;
// blocks inside a gap run at CoolScale, everyone else at full power.
func (c *ZigZagController) ScaleInto(out, temps []float64) error {
	state := -1
	if c.cooling != nil {
		state = len(c.cooling)
	}
	if err := scaleBuffers(out, temps, state); err != nil {
		return err
	}
	if c.cooling == nil {
		c.cooling = make([]int, len(temps))
	}
	for i, t := range temps {
		if c.cooling[i] == 0 && c.Ladder.Classify(t) >= StateSerious {
			c.cooling[i] = c.CoolSteps
		}
		if c.cooling[i] > 0 {
			out[i] = c.CoolScale
			c.cooling[i]--
		} else {
			out[i] = 1
		}
	}
	return nil
}

// Reset implements Controller: cooling gaps never leak across runs.
func (c *ZigZagController) Reset() { c.cooling = nil }

// Admit implements Supervisor: no new work starts on a block inside a
// cooling gap. The gap is counted in controller steps, so a denial
// holds until the next ScaleInto: Until is +Inf.
func (c *ZigZagController) Admit(b int, temps []float64, riseC, now float64) Admission {
	if c.cooling == nil {
		c.cooling = make([]int, len(temps))
	}
	st := c.Ladder.Classify(temps[b])
	if rem := c.cooling[b]; rem > 0 {
		return Admission{Until: math.Inf(1), State: st}
	}
	return Admission{OK: true, State: st}
}
