// Package dtm implements dynamic thermal management in the style of the
// paper's reference [2] (Skadron, Abdelzaher, Stan — "Control-Theoretic
// Techniques and Thermal-RC Modeling for Accurate and Localized Dynamic
// Thermal Management", HPCA 2002): a run-time controller that watches the
// transient block temperatures of the thermal RC model and throttles
// per-PE power to keep the die under a trigger threshold.
//
// Two controllers are provided:
//
//   - ToggleController: classic threshold DTM — when any block crosses
//     the trigger temperature, the offending PE's power is cut to a fixed
//     throttle fraction until it cools below trigger − hysteresis.
//   - PIController: the control-theoretic variant of reference [2] — a
//     per-PE proportional–integral loop drives each block's temperature
//     error to zero, scaling power continuously in [MinScale, 1].
//
// The paper proper uses only steady-state temperatures; DTM is the
// natural run-time companion (experiment A3/extension in DESIGN.md) and
// shows how the static thermal-aware schedule reduces throttling.
//
// Beyond reactive scaling, the package defines the Supervisor contract
// (supervisor.go): thermal-state classification on a nominal/fair/
// serious/critical Ladder, graduated per-state throttle factors, and
// admission queries with retry-after hints. Reactive controllers adapt
// via the Supervise shim; AdmitController (predictive admission) and
// ZigZagController (forced idle-slack cooling gaps) implement the
// proactive side.
//
// The package holds no stepping loop of its own: the closed-loop
// co-simulation core internal/coloop steps the transient model, applies
// the supervisor's scales by stretching the running tasks (so throttling
// feeds back into makespan and deadline misses) and honours its
// admission decisions. internal/runtime (the Engine's "simulate" flow)
// and internal/stream both drive this package's Supervisor
// implementations through it.
package dtm

import "fmt"

// Controller scales each PE's requested power based on observed block
// temperatures, writing per-block multipliers in [0, 1] into a
// caller-supplied slice.
//
// Resize contract: a controller sizes its per-block state on the first
// ScaleInto call after construction or Reset. A later call with a
// different block count is an error — silently resizing would discard
// throttle/integral state mid-run. Call Reset to start a run with a new
// block count.
type Controller interface {
	// ScaleInto inspects the current block temperatures (°C, indexed
	// like the model's blocks) and writes per-block power multipliers
	// into out (same length as temps). It must not allocate on the
	// steady path.
	ScaleInto(out, temps []float64) error
	// Reset clears controller state between runs.
	Reset()
}

// scaleBuffers validates the out/temps pair and the controller's
// per-block state size (shared by both controllers' ScaleInto).
func scaleBuffers(out, temps []float64, state int) error {
	if len(out) != len(temps) {
		return fmt.Errorf("dtm: scale buffer has %d blocks for %d temperatures", len(out), len(temps))
	}
	if state >= 0 && state != len(temps) {
		return fmt.Errorf("dtm: block count changed mid-run from %d to %d (Reset between runs)",
			state, len(temps))
	}
	return nil
}

// ToggleController is threshold-triggered throttling with hysteresis.
type ToggleController struct {
	TriggerC   float64 // throttle when a block exceeds this temperature
	Hysteresis float64 // un-throttle below TriggerC − Hysteresis
	Throttle   float64 // power multiplier while throttled, in [0, 1)

	throttled []bool
}

// NewToggleController returns a toggle controller with the given
// trigger temperature, hysteresis band and throttle fraction.
func NewToggleController(triggerC, hysteresis, throttle float64) (*ToggleController, error) {
	if hysteresis < 0 {
		return nil, fmt.Errorf("dtm: negative hysteresis %g", hysteresis)
	}
	if throttle < 0 || throttle >= 1 {
		return nil, fmt.Errorf("dtm: throttle fraction %g out of [0, 1)", throttle)
	}
	return &ToggleController{TriggerC: triggerC, Hysteresis: hysteresis, Throttle: throttle}, nil
}

// ScaleInto implements Controller.
func (c *ToggleController) ScaleInto(out, temps []float64) error {
	state := -1
	if c.throttled != nil {
		state = len(c.throttled)
	}
	if err := scaleBuffers(out, temps, state); err != nil {
		return err
	}
	if c.throttled == nil {
		c.throttled = make([]bool, len(temps))
	}
	for i, t := range temps {
		switch {
		case t >= c.TriggerC:
			c.throttled[i] = true
		case t <= c.TriggerC-c.Hysteresis:
			c.throttled[i] = false
		}
		if c.throttled[i] {
			out[i] = c.Throttle
		} else {
			out[i] = 1
		}
	}
	return nil
}

// Reset implements Controller.
func (c *ToggleController) Reset() { c.throttled = nil }

// PIController is a per-block proportional–integral power controller.
type PIController struct {
	SetpointC float64 // target temperature
	Kp        float64 // proportional gain, 1/°C
	Ki        float64 // integral gain, 1/(°C·step)
	MinScale  float64 // lower bound on the power multiplier

	integral []float64
}

// NewPIController returns a PI controller for the given setpoint.
func NewPIController(setpointC, kp, ki, minScale float64) (*PIController, error) {
	if kp < 0 {
		return nil, fmt.Errorf("dtm: negative gain Kp %g", kp)
	}
	if ki < 0 {
		return nil, fmt.Errorf("dtm: negative gain Ki %g", ki)
	}
	if minScale < 0 || minScale > 1 {
		return nil, fmt.Errorf("dtm: MinScale %g out of [0, 1]", minScale)
	}
	return &PIController{SetpointC: setpointC, Kp: kp, Ki: ki, MinScale: minScale}, nil
}

// ScaleInto implements Controller.
func (c *PIController) ScaleInto(out, temps []float64) error {
	state := -1
	if c.integral != nil {
		state = len(c.integral)
	}
	if err := scaleBuffers(out, temps, state); err != nil {
		return err
	}
	if c.integral == nil {
		c.integral = make([]float64, len(temps))
	}
	for i, t := range temps {
		err := t - c.SetpointC // positive when too hot
		if err > 0 {
			c.integral[i] += err
		} else {
			// Anti-windup: bleed the integral when below setpoint.
			c.integral[i] *= 0.9
		}
		scale := 1 - c.Kp*maxf(err, 0) - c.Ki*c.integral[i]
		if scale < c.MinScale {
			scale = c.MinScale
		}
		if scale > 1 {
			scale = 1
		}
		out[i] = scale
	}
	return nil
}

// Reset implements Controller.
func (c *PIController) Reset() { c.integral = nil }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
