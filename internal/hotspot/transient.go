package hotspot

import (
	"fmt"

	"thermalsched/internal/linalg"
)

// Transient integrates the thermal network over time with fixed-step
// backward Euler. Construct one with Model.NewTransient; feed it power
// samples with StepVec or StepVecInto. The state starts at ambient.
type Transient struct {
	m       *Model
	stepper *linalg.BackwardEulerStepper
	state   []float64 // temperature rise over ambient, all nodes
	next    []float64 // workspace for the incoming state (swapped with state)
	pbuf    []float64 // workspace: block powers widened to all nodes
	now     float64   // elapsed simulated seconds
}

// NewTransient creates a transient simulation with time step dt seconds.
// Transients at the same step share the model's memoized factorization
// of C/dt + G, so only the first one pays for it.
func (m *Model) NewTransient(dt float64) (*Transient, error) {
	m.stepMu.Lock()
	memo, err := m.stepMemoLocked(dt)
	m.stepMu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Transient{
		m:       m,
		stepper: memo.factor.NewStepper(),
		state:   make([]float64, m.total),
		next:    make([]float64, m.total),
		pbuf:    make([]float64, m.total),
	}, nil
}

// Time returns the elapsed simulated time in seconds.
func (tr *Transient) Time() float64 { return tr.now }

// SetRise overwrites the full node state with the given temperature
// rises over ambient (all nodes, in the model's node layout — the shape
// Model.SteadyNodeRise returns). It warm-starts a transient at a chosen
// operating point without advancing time.
func (tr *Transient) SetRise(rise []float64) error {
	if len(rise) != len(tr.state) {
		return fmt.Errorf("hotspot: rise vector length %d, want %d", len(rise), len(tr.state))
	}
	copy(tr.state, rise)
	return nil
}

// StepVec advances one time step with powers indexed by block node order.
func (tr *Transient) StepVec(power []float64) (Temps, error) {
	vals := make([]float64, tr.m.n)
	if err := tr.StepVecInto(vals, power); err != nil {
		return Temps{}, err
	}
	return Temps{names: tr.m.names, byName: tr.m.byName, values: vals}, nil
}

// StepVecInto advances one time step with powers indexed by block node
// order, writing the resulting block temperatures (°C) into dst without
// allocating — the DTM control loop's form.
func (tr *Transient) StepVecInto(dst, power []float64) error {
	if len(power) != tr.m.n {
		return fmt.Errorf("hotspot: power vector length %d, want %d", len(power), tr.m.n)
	}
	if len(dst) != tr.m.n {
		return fmt.Errorf("hotspot: temperature vector length %d, want %d", len(dst), tr.m.n)
	}
	copy(tr.pbuf, power) // non-block nodes of pbuf stay zero
	if err := tr.stepNodes(tr.pbuf); err != nil {
		return err
	}
	ambient := tr.m.cfg.AmbientC
	for i := range dst {
		dst[i] = tr.state[i] + ambient
	}
	return nil
}

// stepNodes advances the full node state under an all-nodes power
// vector, reusing the swap buffer so stepping never allocates.
func (tr *Transient) stepNodes(p []float64) error {
	if err := tr.stepper.StepInto(tr.next, tr.state, p); err != nil {
		return fmt.Errorf("hotspot: transient step: %w", err)
	}
	tr.state, tr.next = tr.next, tr.state
	tr.now += tr.stepper.Dt()
	return nil
}

// maxStepMemos bounds how many step sizes a model memoizes: each holds
// a sparse factorization of all nodes plus the rise curves integrated
// on it, and a long-lived cached model asked for ever new steps must
// not grow without limit. Flows step one model at one size, so two
// entries cover a flow plus a stray request. Evicted entries are rebuilt
// bit-identically on the next request.
const maxStepMemos = 2

// stepMemo is the transient state a model memoizes for one step size.
type stepMemo struct {
	dt     float64
	factor *linalg.BackwardEulerFactor // factored C/dt + G, read-only
	curves map[int]*riseCurve          // by block, see StepRise
}

// riseCurve is one block's unit-step self-rise curve together with the
// node state its integration has reached, so extending the curve
// continues the very same integration.
type riseCurve struct {
	rise  []float64 // block rise (K/W) after step i+1 of 1 W
	state []float64 // node state after len(rise) steps
}

// stepMemoLocked returns (building on first request) the memo for step
// dt, moving it to the front of the recency list. m.stepMu must be held.
func (m *Model) stepMemoLocked(dt float64) (*stepMemo, error) {
	for i, sm := range m.stepMemos {
		if sm.dt == dt {
			copy(m.stepMemos[1:i+1], m.stepMemos[:i])
			m.stepMemos[0] = sm
			return sm, nil
		}
	}
	// Every model steps under the min-degree order, so transient
	// trajectories do not depend on the steady-state order. The order
	// also sets the rounding: it keeps every dispatch tie-break of the
	// dense-LU stepper this integrator replaced, where natural order
	// flips near-tied online dispatch decisions.
	if m.order == nil {
		m.order = linalg.MinDegreeOrdering(m.csr)
	}
	f, err := linalg.NewBackwardEulerFactor(m.csr, m.caps, dt, m.order)
	if err != nil {
		return nil, fmt.Errorf("hotspot: transient init: %w", err)
	}
	sm := &stepMemo{dt: dt, factor: f, curves: make(map[int]*riseCurve)}
	if len(m.stepMemos) < maxStepMemos {
		m.stepMemos = append(m.stepMemos, nil)
	}
	copy(m.stepMemos[1:], m.stepMemos)
	m.stepMemos[0] = sm
	return sm, nil
}

// StepRise returns block b's unit-step self-rise curve at step dt
// seconds: element i is the rise (K/W) of block b over ambient after
// step i+1 of a 1 W load on b alone, starting from ambient — exactly
// what a fresh Transient stepped under that load reports. Curves are
// memoized per (block, dt) and extended on demand by continuing the
// same integration, so any prefix or extension is bit-identical to a
// fresh run. The result is shared read-only state; callers must not
// modify it. Safe for concurrent use.
func (m *Model) StepRise(b int, dt float64, steps int) ([]float64, error) {
	if b < 0 || b >= m.n {
		return nil, fmt.Errorf("hotspot: step-rise block %d out of range [0,%d)", b, m.n)
	}
	if steps < 0 {
		return nil, fmt.Errorf("hotspot: negative step-rise length %d", steps)
	}
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	memo, err := m.stepMemoLocked(dt)
	if err != nil {
		return nil, err
	}
	c := memo.curves[b]
	if c == nil {
		c = &riseCurve{state: make([]float64, m.total)}
		memo.curves[b] = c
	}
	if have := len(c.rise); have < steps {
		// Extend into a fresh array: slices handed out earlier keep
		// reading the old one, whose elements never change.
		rise := make([]float64, have, steps)
		copy(rise, c.rise)
		stepper := memo.factor.NewStepper()
		unit := make([]float64, m.total)
		unit[b] = 1
		state, next := c.state, make([]float64, m.total)
		ambient := m.cfg.AmbientC
		for i := have; i < steps; i++ {
			if err := stepper.StepInto(next, state, unit); err != nil {
				return nil, fmt.Errorf("hotspot: transient step: %w", err)
			}
			state, next = next, state
			// Through °C and back, as Transient.StepVecInto reports it.
			rise = append(rise, (state[b]+ambient)-ambient)
		}
		c.rise, c.state = rise, state
	}
	return c.rise[:steps:steps], nil
}
