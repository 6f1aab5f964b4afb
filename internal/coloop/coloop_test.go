package coloop

import (
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
