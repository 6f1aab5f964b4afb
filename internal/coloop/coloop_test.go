package coloop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

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

func checkCurves(t *testing.T, what string, f *RiseForecaster, want [][]float64) {
	t.Helper()
	for pe, curve := range f.curves {
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

// Forecasters read memoized curves; whether the short or the long
// horizon is requested first on a model, the curves are bit-identical
// to a fresh per-block integration. PEs 0 and 3 share a block.
func TestRiseForecasterMatchesFreshIntegration(t *testing.T) {
	const dtSec = 0.1
	peBlock := []int{0, 1, 2, 0}
	want := freshCurves(t, rowModel(t, 4), peBlock, dtSec, 50)
	for _, order := range [][]float64{{0.7, 5}, {5, 0.7}} {
		model := rowModel(t, 4)
		for _, maxDur := range order {
			f, err := NewRiseForecaster(model, peBlock, dtSec, maxDur)
			if err != nil {
				t.Fatal(err)
			}
			if wantLen := int(math.Ceil(maxDur / dtSec)); len(f.curves[0]) != wantLen {
				t.Fatalf("horizon %g: %d samples, want %d", maxDur, len(f.curves[0]), wantLen)
			}
			checkCurves(t, "memoized", f, want)
		}
	}
}

// Concurrent forecasters and cores on one shared model — the engine's
// cached-model case under replica fan-out — build and extend the memo
// safely (run with -race) and all see the same curves.
func TestRiseForecasterParallelSharedModel(t *testing.T) {
	const dtSec = 0.1
	peBlock := []int{3, 2, 1, 0, 5, 4}
	want := freshCurves(t, rowModel(t, 6), peBlock, dtSec, 80)
	model := rowModel(t, 6)
	var wg sync.WaitGroup
	got := make([]*RiseForecaster, 8)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Alternate horizons so extensions race with lookups.
			got[i], errs[i] = NewRiseForecaster(model, peBlock, dtSec, float64(1+i%4*2))
			if errs[i] == nil {
				_, errs[i] = New(Config{Model: model, PEBlock: peBlock, DT: 1, TimeScale: dtSec, MaxSteps: 1})
			}
		}(i)
	}
	wg.Wait()
	for i, f := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkCurves(t, "parallel", f, want)
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
