package coloop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"thermalsched/internal/dtm"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
)

func rowModel(t testing.TB, n int) *hotspot.Model {
	t.Helper()
	fp, err := floorplan.Row("pe", n, 16e-6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// freshCurves samples every PE block's unit-step self-response the
// way the forecaster did before curves were memoized: one Transient
// per block on a model nothing has memoized yet.
func freshCurves(t *testing.T, model *hotspot.Model, peBlock []int, dtSec float64, steps int) [][]float64 {
	t.Helper()
	ambient := model.Config().AmbientC
	out := make([][]float64, len(peBlock))
	for pe, b := range peBlock {
		tr, err := model.NewTransient(dtSec)
		if err != nil {
			t.Fatal(err)
		}
		unit := make([]float64, model.NumBlocks())
		unit[b] = 1
		temps := make([]float64, model.NumBlocks())
		out[pe] = make([]float64, steps)
		for i := range out[pe] {
			if err := tr.StepVecInto(temps, unit); err != nil {
				t.Fatal(err)
			}
			out[pe][i] = temps[b] - ambient
		}
	}
	return out
}

func checkCurves(t *testing.T, what string, curves, want [][]float64) {
	t.Helper()
	for pe, curve := range curves {
		if len(curve) > len(want[pe]) {
			t.Fatalf("%s: PE %d curve has %d samples, reference %d", what, pe, len(curve), len(want[pe]))
		}
		for i, v := range curve {
			if math.Float64bits(v) != math.Float64bits(want[pe][i]) {
				t.Fatalf("%s: PE %d sample %d = %v, fresh integration %v", what, pe, i, v, want[pe][i])
			}
		}
	}
}

// The forecast reads memoized curves; whether the short or the long
// horizon is requested first on a model, the curves are bit-identical
// to a fresh per-block integration. PEs 0 and 3 share a block.
func TestRiseForecasterMatchesFreshIntegration(t *testing.T) {
	const dtSec = 0.1
	peBlock := []int{0, 1, 2, 0}
	want := freshCurves(t, rowModel(t, 4), peBlock, dtSec, 50)
	for _, order := range [][]float64{{0.7, 5}, {5, 0.7}} {
		model := rowModel(t, 4)
		for _, maxDur := range order {
			curves, err := riseCurves(model, peBlock, dtSec, maxDur)
			if err != nil {
				t.Fatal(err)
			}
			if wantLen := int(math.Ceil(maxDur / dtSec)); len(curves[0]) != wantLen {
				t.Fatalf("horizon %g: %d samples, want %d", maxDur, len(curves[0]), wantLen)
			}
			checkCurves(t, "memoized", curves, want)
		}
	}
}

// Concurrent forecasts and cores on one shared model — the engine's
// cached-model case under replica fan-out — build and extend the memo
// safely (run with -race) and all see the same curves.
func TestRiseForecasterParallelSharedModel(t *testing.T) {
	const dtSec = 0.1
	peBlock := []int{3, 2, 1, 0, 5, 4}
	want := freshCurves(t, rowModel(t, 6), peBlock, dtSec, 80)
	model := rowModel(t, 6)
	var wg sync.WaitGroup
	got := make([][][]float64, 8)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Alternate horizons so extensions race with lookups.
			got[i], errs[i] = riseCurves(model, peBlock, dtSec, float64(1+i%4*2))
			if errs[i] == nil {
				_, errs[i] = New(Config{Model: model, PEBlock: peBlock, DT: 1, TimeScale: dtSec, MaxSteps: 1})
			}
		}(i)
	}
	wg.Wait()
	for i, curves := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkCurves(t, "parallel", curves, want)
	}
}

// stepHooks returns hooks whose micro loop deposits a deterministic,
// PE- and step-dependent energy, never finishes on its own unless done
// says so, and reports stalls and cancellations as typed errors.
func stepHooks(step func(now, stepEnd float64) error, done func() bool) Hooks {
	return Hooks{
		Done:      done,
		Step:      step,
		Stalled:   func(steps int) error { return stalledError(steps) },
		Cancelled: func(cause error) error { return cancelledError{cause} },
	}
}

type stalledError int

func (e stalledError) Error() string { return fmt.Sprintf("stalled after %d steps", int(e)) }

type cancelledError struct{ cause error }

func (e cancelledError) Error() string { return "cancelled: " + e.cause.Error() }

// Core.Energy is exactly the sum of the energies the hooks deposited,
// in step then PE order, and PerPEEnergy splits it per PE.
func TestCoreEnergyIsSumOfDepositedStepEnergy(t *testing.T) {
	peBlock := []int{0, 1, 2, 0}
	c, err := New(Config{Model: rowModel(t, 3), PEBlock: peBlock, DT: 2, TimeScale: 0.05,
		MaxSteps: 100, TrackPerPE: true})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	wantPerPE := make([]float64, len(peBlock))
	steps := 0
	step := func(now, stepEnd float64) error {
		for pe := range c.StepEnergy {
			if c.StepEnergy[pe] != 0 {
				return fmt.Errorf("step %d: StepEnergy[%d] = %v not zeroed", steps, pe, c.StepEnergy[pe])
			}
			e := 0.1*float64(pe+1) + 0.37*float64(steps%5)
			c.StepEnergy[pe] = e
			want += e
			wantPerPE[pe] += e
		}
		steps++
		return nil
	}
	if err := c.Run(context.Background(), stepHooks(step, func() bool { return steps == 40 })); err != nil {
		t.Fatal(err)
	}
	if c.Steps != 40 {
		t.Fatalf("Steps = %d, want 40", c.Steps)
	}
	if c.Energy != want {
		t.Errorf("Energy = %v, sum of deposited step energy %v", c.Energy, want)
	}
	for pe, e := range c.PerPEEnergy {
		if e != wantPerPE[pe] {
			t.Errorf("PerPEEnergy[%d] = %v, deposited %v", pe, e, wantPerPE[pe])
		}
	}
	if !(c.PeakTempC > c.cfg.Model.Config().AmbientC) {
		t.Errorf("PeakTempC %v did not rise above ambient", c.PeakTempC)
	}
}

// A core warm-started at the steady state of block power p sits at
// its fixed point: stepping under the same constant power leaves every
// block temperature where the steady solve put it.
func TestCoreWarmStartIsFixedPoint(t *testing.T) {
	model := rowModel(t, 4)
	p := []float64{3, 0, 5.5, 1.25}
	c, err := New(Config{Model: model, PEBlock: []int{0, 1, 2, 3}, DT: 2, TimeScale: 0.05, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WarmStart(p); err != nil {
		t.Fatal(err)
	}
	want, err := model.SteadyStateDirect(p)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	step := func(now, stepEnd float64) error {
		for pe, w := range p {
			c.StepEnergy[pe] = w * (stepEnd - now)
		}
		steps++
		return nil
	}
	hooks := stepHooks(step, func() bool { return steps == 50 })
	hooks.Observe = func(temps []float64) {
		for i, v := range want.Values() {
			if math.Abs(temps[i]-v) > 1e-9 {
				t.Fatalf("step %d: block %d at %v, steady state %v", steps, i, temps[i], v)
			}
		}
	}
	if err := c.Run(context.Background(), hooks); err != nil {
		t.Fatal(err)
	}
	if c.Steps != 50 {
		t.Fatalf("Steps = %d, want 50", c.Steps)
	}
}

// A run that never finishes is stopped with Stalled after exactly
// MaxSteps steps.
func TestCoreStallsAtExactlyMaxSteps(t *testing.T) {
	const maxSteps = 37
	c, err := New(Config{Model: rowModel(t, 2), PEBlock: []int{0, 1}, DT: 1, TimeScale: 0.1, MaxSteps: maxSteps})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	step := func(now, stepEnd float64) error { calls++; return nil }
	err = c.Run(context.Background(), stepHooks(step, func() bool { return false }))
	var stalled stalledError
	if !errors.As(err, &stalled) {
		t.Fatalf("Run = %v, want the Stalled hook's error", err)
	}
	if int(stalled) != maxSteps || c.Steps != maxSteps || calls != maxSteps {
		t.Errorf("stalled at %d, Steps %d, micro-loop calls %d; want all %d", int(stalled), c.Steps, calls, maxSteps)
	}
}

// A cancelled context is reported through Cancelled within
// ctxCheckInterval steps of the cancellation, and before any step when
// the context is already done.
func TestCoreReportsCancellationWithinCheckInterval(t *testing.T) {
	for _, cancelAt := range []int{0, 1, ctxCheckInterval - 1, ctxCheckInterval, 3*ctxCheckInterval + 5} {
		c, err := New(Config{Model: rowModel(t, 2), PEBlock: []int{0, 1}, DT: 1, TimeScale: 0.1,
			MaxSteps: 10 * ctxCheckInterval})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		if cancelAt == 0 {
			cancel()
		}
		step := func(now, stepEnd float64) error {
			calls++
			if calls == cancelAt {
				cancel()
			}
			return nil
		}
		err = c.Run(ctx, stepHooks(step, func() bool { return false }))
		cancel()
		var cancelled cancelledError
		if !errors.As(err, &cancelled) || !errors.Is(cancelled.cause, context.Canceled) {
			t.Fatalf("cancel at %d: Run = %v, want the Cancelled hook's error", cancelAt, err)
		}
		if cancelAt == 0 && c.Steps != 0 {
			t.Errorf("context done before Run, but %d steps ran", c.Steps)
		}
		if c.Steps < cancelAt || c.Steps-cancelAt > ctxCheckInterval {
			t.Errorf("cancel at step %d reported after %d steps, want within %d", cancelAt, c.Steps, ctxCheckInterval)
		}
	}
}

// stubSupervisor is a proactive supervisor that refuses every start
// while deny is set, with a hold of retry loop time units, and counts
// the queries that reach it.
type stubSupervisor struct {
	deny    bool
	retry   float64
	queries int
}

func (s *stubSupervisor) ScaleInto(out, temps []float64) error {
	for i := range out {
		out[i] = 1
	}
	return nil
}
func (s *stubSupervisor) Reset() {}
func (s *stubSupervisor) Admit(b int, temps []float64, riseC, now float64) dtm.Admission {
	s.queries++
	if !s.deny {
		return dtm.Admission{OK: true}
	}
	return dtm.Admission{Until: now + s.retry}
}

// gateCore builds a two-PE core on sup and its gate.
func gateCore(t *testing.T, sup dtm.Controller, dt float64) (*Core, *Gate) {
	t.Helper()
	c, err := New(Config{Model: rowModel(t, 2), PEBlock: []int{0, 1}, DT: dt, TimeScale: 0.1,
		MaxSteps: 1 << 20, Supervisor: sup})
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Gate(5)
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

// runSteps runs the core for the given number of steps with step as
// the micro loop.
func runSteps(t *testing.T, c *Core, steps int, step func(now, stepEnd float64) error) {
	t.Helper()
	n := 0
	err := c.Run(context.Background(), stepHooks(func(now, stepEnd float64) error {
		n++
		return step(now, stepEnd)
	}, func() bool { return n == steps }))
	if err != nil {
		t.Fatal(err)
	}
}

// Without a controller, or under a reactive one, there is no gate, and
// the nil gate admits everything, holds nothing and counts nothing.
func TestGateNilAdmitsAndNeverHolds(t *testing.T) {
	toggle, err := dtm.NewToggleController(80, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sup := range []dtm.Controller{nil, toggle} {
		_, g := gateCore(t, sup, 1)
		if g != nil {
			t.Fatalf("controller %T: got a gate, want nil", sup)
		}
		for _, at := range []float64{0, 3.5, 1e9} {
			if ok, armed := g.Admit(1, 40, 10, at); !ok || armed {
				t.Errorf("nil gate Admit at %g = (%v, %v), want (true, false)", at, ok, armed)
			}
			if e := g.Expiry(1); !(e < at) {
				t.Errorf("nil gate Expiry = %g, want before %g", e, at)
			}
			if h := g.Held(); len(h) != 0 {
				t.Errorf("nil gate Held = %v, want none", h)
			}
		}
		g.Deny(7)
		if d := g.Denials(); d != 0 {
			t.Errorf("nil gate Denials = %d, want 0", d)
		}
	}
}

// A denial whose hold outlasts the step holds its PE to the step's end
// and no further: later asks in the step are refused without a query,
// and the next step asks the supervisor again.
func TestGateHoldCappedAtStepEnd(t *testing.T) {
	sup := &stubSupervisor{deny: true, retry: 100}
	c, g := gateCore(t, sup, 2)
	runSteps(t, c, 4, func(now, stepEnd float64) error {
		before := sup.queries
		at := now + 0.5
		if ok, armed := g.Admit(0, 3, 1, at); ok || !armed {
			return fmt.Errorf("step at %g: fresh ask = (%v, %v), want a new hold", now, ok, armed)
		}
		if e := g.Expiry(0); e != stepEnd {
			return fmt.Errorf("step at %g: hold expires at %g, want the step end %g", now, e, stepEnd)
		}
		if h := g.Held(); len(h) != 1 || h[0] != 0 {
			return fmt.Errorf("step at %g: Held = %v, want [0]", now, h)
		}
		if ok, armed := g.Admit(0, 3, 1, math.Nextafter(stepEnd, 0)); ok || armed {
			return fmt.Errorf("step at %g: ask under the hold = (%v, %v), want refused, no new hold", now, ok, armed)
		}
		if q := sup.queries - before; q != 1 {
			return fmt.Errorf("step at %g: %d supervisor queries, want 1", now, q)
		}
		return nil
	})
	if sup.queries != 4 {
		t.Errorf("%d supervisor queries over 4 steps, want one per step", sup.queries)
	}
}

// A hold so short that it rounds to the query time (retryAfter 1e-300
// at t > 0) holds nothing: every ask reaches the supervisor.
func TestGateTinyRetryNeverHolds(t *testing.T) {
	sup := &stubSupervisor{deny: true, retry: 1e-300}
	c, g := gateCore(t, sup, 1)
	asks := 0
	runSteps(t, c, 5, func(now, stepEnd float64) error {
		for _, at := range []float64{now + 0.25, now + 0.25, now + 0.75} {
			asks++
			if ok, armed := g.Admit(1, 3, 1, at); ok || armed {
				return fmt.Errorf("ask at %g = (%v, %v), want refused without a hold", at, ok, armed)
			}
			if h := g.Held(); len(h) != 0 {
				return fmt.Errorf("Held after an ask at %g = %v, want none", at, h)
			}
		}
		return nil
	})
	if sup.queries != asks || g.Denials() != asks {
		t.Errorf("%d asks made %d queries and %d denials, want all equal", asks, sup.queries, g.Denials())
	}
}

// Every refused ask counts exactly once, whether the supervisor or a
// hold refused it, and Deny adds the asks a dispatcher skipped.
func TestGateCountsEachDenialOnce(t *testing.T) {
	sup := &stubSupervisor{retry: 0.5}
	c, g := gateCore(t, sup, 1)
	want := 0
	ask := func(pe int, at float64) {
		if ok, _ := g.Admit(pe, 3, 1, at); !ok {
			want++
		}
	}
	runSteps(t, c, 3, func(now, stepEnd float64) error {
		sup.deny = false
		ask(0, now) // admitted
		sup.deny = true
		ask(0, now)      // refused by the supervisor: hold to now+0.5
		ask(0, now+0.25) // refused by the hold
		ask(1, now+0.25) // refused by the supervisor
		ask(0, now+0.5)  // hold over: refused by the supervisor again
		sup.deny = false
		ask(0, now+0.75)  // refused by the hold armed at now+0.5
		ask(1, now+0.875) // hold over: admitted
		g.Deny(3)
		want += 3
		return nil
	})
	if want != 3*8 {
		t.Fatalf("test drove %d denials, want 24", want)
	}
	if g.Denials() != want {
		t.Errorf("Denials = %d, want %d", g.Denials(), want)
	}
}

// An AdmitController embargo that outlasts its step is asked again at
// the next step start, and the hold the gate takes from that answer
// ends exactly, bit for bit, where the embargo does.
func TestGateEmbargoAcrossStepsKeepsItsExpiry(t *testing.T) {
	for _, dt := range []float64{0.1, 0.3, 1, 2.5} {
		for _, retry := range []float64{0.3, 0.7, 2, 3.7, 10.05} {
			for _, frac := range []float64{0, 0.13, 0.5, 0.999} {
				for _, first := range []int{0, 1, 7} {
					sup, err := dtm.NewAdmitController(dtm.DefaultLadder, 0.7, 0.4, retry, 2)
					if err != nil {
						t.Fatal(err)
					}
					c, g := gateCore(t, sup, dt)
					var embargo float64
					step, crossed, mustCross := 0, 0, false
					err = c.Run(context.Background(), stepHooks(func(now, stepEnd float64) error {
						defer func() { step++ }()
						if step < first {
							return nil
						}
						c.Temps[0] = 95 // critical: the controller denies
						at := now
						if step == first {
							at = now + frac*dt
							embargo = at + retry
							mustCross = embargo > stepEnd
						}
						if ok, _ := g.Admit(0, 3, 1, at); ok {
							return fmt.Errorf("ask at %g admitted, want refused", at)
						}
						want := min(embargo, stepEnd)
						if got := g.Expiry(0); math.Float64bits(got) != math.Float64bits(want) {
							return fmt.Errorf("dt %g retry %g: ask at %g holds to %v, want %v (embargo %v)",
								dt, retry, at, got, want, embargo)
						}
						if step > first {
							crossed++
						}
						return nil
					}, func() bool { return step > first && !(embargo > c.now) }))
					if err != nil {
						t.Fatal(err)
					}
					if mustCross && crossed == 0 {
						t.Errorf("dt %g retry %g: the embargo outlasted its step but was never asked again", dt, retry)
					}
				}
			}
		}
	}
}
