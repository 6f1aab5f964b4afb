package dtm

import (
	"math"
	"testing"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
)

func model4(t testing.TB) *hotspot.Model {
	t.Helper()
	fp, err := floorplan.Row("pe", 4, 16e-6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// openRun summarizes runOpen: the hottest block temperature, the
// fraction of (block, step) pairs that ran below full power, and the
// share of requested energy the throttling denied.
type openRun struct {
	peak, throttled, slowdown float64
}

// runOpen steps the model's transient through fixed per-block power
// samples under ctrl. The controller observes the temperatures after
// each step and its scales apply to the next step's power — a one-step
// sensing delay, as in a real DTM loop.
func runOpen(t *testing.T, m *hotspot.Model, ctrl Controller, samples [][]float64, dt float64) openRun {
	t.Helper()
	tr, err := m.NewTransient(dt)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Reset()
	n := m.NumBlocks()
	scale, scaled, temps := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range scale {
		scale[i] = 1
	}
	var r openRun
	var requested, delivered float64
	for _, p := range samples {
		for i, w := range p {
			scaled[i] = w * scale[i]
			requested += w
			delivered += scaled[i]
			if scale[i] < 1 {
				r.throttled++
			}
		}
		if err := tr.StepVecInto(temps, scaled); err != nil {
			t.Fatal(err)
		}
		for _, v := range temps {
			r.peak = math.Max(r.peak, v)
		}
		if err := ctrl.ScaleInto(scale, temps); err != nil {
			t.Fatal(err)
		}
	}
	r.throttled /= float64(len(samples) * n)
	r.slowdown = 1 - delivered/requested
	return r
}

// scaleOnce runs one ScaleInto on temps into a fresh slice.
func scaleOnce(c Controller, temps []float64) ([]float64, error) {
	out := make([]float64, len(temps))
	if err := c.ScaleInto(out, temps); err != nil {
		return nil, err
	}
	return out, nil
}

// hotSamples produces a sustained high-power workload that would exceed
// the trigger temperature without DTM.
func hotSamples(steps int) [][]float64 {
	out := make([][]float64, steps)
	for i := range out {
		out[i] = []float64{12, 4, 4, 4}
	}
	return out
}

func TestToggleControllerValidation(t *testing.T) {
	if _, err := NewToggleController(80, -1, 0.5); err == nil {
		t.Error("negative hysteresis accepted")
	}
	if _, err := NewToggleController(80, 2, 1.0); err == nil {
		t.Error("throttle 1.0 accepted")
	}
	if _, err := NewToggleController(80, 2, -0.1); err == nil {
		t.Error("negative throttle accepted")
	}
	if _, err := NewToggleController(80, 2, 0.5); err != nil {
		t.Errorf("valid controller rejected: %v", err)
	}
	nan := math.NaN()
	for _, k := range [][3]float64{{nan, 2, 0.5}, {math.Inf(1), 2, 0.5}, {80, nan, 0.5}, {80, 2, nan}} {
		if _, err := NewToggleController(k[0], k[1], k[2]); err == nil {
			t.Errorf("toggle knobs %v accepted", k)
		}
	}
}

func TestPIControllerValidation(t *testing.T) {
	if _, err := NewPIController(80, -1, 0, 0.2); err == nil {
		t.Error("negative kp accepted")
	}
	if _, err := NewPIController(80, 0.1, 0.01, 1.5); err == nil {
		t.Error("MinScale > 1 accepted")
	}
	if _, err := NewPIController(80, 0.1, 0.01, 0.2); err != nil {
		t.Errorf("valid controller rejected: %v", err)
	}
	nan := math.NaN()
	for _, k := range [][4]float64{{nan, 0.1, 0.01, 0.2}, {math.Inf(-1), 0.1, 0.01, 0.2},
		{80, nan, 0.01, 0.2}, {80, 0.1, nan, 0.2}, {80, 0.1, 0.01, nan}} {
		if _, err := NewPIController(k[0], k[1], k[2], k[3]); err == nil {
			t.Errorf("PI knobs %v accepted", k)
		}
	}
}

func TestToggleCapsTemperature(t *testing.T) {
	m := model4(t)
	// Unmanaged run for reference.
	unmanaged := runOpen(t, m, noopController{}, hotSamples(4000), 0.002)
	ctrl, err := NewToggleController(85, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	managed := runOpen(t, m, ctrl, hotSamples(4000), 0.002)
	if unmanaged.peak <= 85 {
		t.Fatalf("test workload too cool to exercise DTM: %v", unmanaged.peak)
	}
	if managed.peak >= unmanaged.peak {
		t.Errorf("DTM did not reduce peak: %v vs %v", managed.peak, unmanaged.peak)
	}
	// Overshoot past the trigger is bounded (one sensing step plus RC lag).
	if managed.peak > 92 {
		t.Errorf("managed peak %v overshoots the 85 °C trigger too far", managed.peak)
	}
	if managed.throttled <= 0 {
		t.Error("throttling never engaged")
	}
	if managed.slowdown <= 0 || managed.slowdown >= 1 {
		t.Errorf("slowdown = %v, want (0, 1)", managed.slowdown)
	}
}

func TestToggleHysteresisPreventsFlapping(t *testing.T) {
	ctrl, err := NewToggleController(80, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Cross the trigger, then sit inside the hysteresis band: the
	// controller must stay throttled at 78 °C (above 80−5).
	s1, err := scaleOnce(ctrl, []float64{85})
	if err != nil {
		t.Fatal(err)
	}
	if s1[0] != 0.5 {
		t.Fatalf("should throttle at 85: %v", s1)
	}
	s2, err := scaleOnce(ctrl, []float64{78})
	if err != nil {
		t.Fatal(err)
	}
	if s2[0] != 0.5 {
		t.Errorf("should stay throttled inside the band: %v", s2)
	}
	s3, err := scaleOnce(ctrl, []float64{74})
	if err != nil {
		t.Fatal(err)
	}
	if s3[0] != 1 {
		t.Errorf("should release below the band: %v", s3)
	}
}

func TestPIControllerTracksSetpoint(t *testing.T) {
	m := model4(t)
	ctrl, err := NewPIController(82, 0.08, 0.004, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res := runOpen(t, m, ctrl, hotSamples(6000), 0.002)
	// PI control should keep the peak near the setpoint (a few degrees
	// of transient overshoot is inherent to the one-step sensing delay).
	if res.peak > 88 {
		t.Errorf("PI peak %v too far above the 82 °C setpoint", res.peak)
	}
	if res.slowdown <= 0 {
		t.Error("PI never throttled a hot workload")
	}
}

func TestPIControllerIdleBelowSetpoint(t *testing.T) {
	ctrl, err := NewPIController(90, 0.05, 0.002, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scaleOnce(ctrl, []float64{50, 60})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s {
		if v != 1 {
			t.Errorf("scale[%d] = %v below setpoint, want 1", i, v)
		}
	}
}

// On mixed temperatures only the block above the setpoint is throttled,
// by the proportional plus the first integral term; the others in the
// same call stay at full power.
func TestPIControllerThrottlesOnlyHotBlocks(t *testing.T) {
	ctrl, err := NewPIController(85, 0.05, 0.002, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scaleOnce(ctrl, []float64{90, 70, 85, 84.9})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - 0.05*5 - 0.002*5; math.Abs(s[0]-want) > 1e-12 {
		t.Errorf("scale[0] at 90 °C = %v, want %v", s[0], want)
	}
	for i := 1; i < len(s); i++ {
		if s[i] != 1 {
			t.Errorf("scale[%d] = %v at or below the setpoint, want 1", i, s[i])
		}
	}
}

func TestControllerResetClearsState(t *testing.T) {
	ctrl, _ := NewToggleController(80, 5, 0.5)
	if _, err := scaleOnce(ctrl, []float64{100}); err != nil { // throttle
		t.Fatal(err)
	}
	ctrl.Reset()
	s, err := scaleOnce(ctrl, []float64{78})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Errorf("after Reset, 78 °C should not be throttled: %v", s)
	}
	pi, _ := NewPIController(80, 0.05, 0.01, 0.1)
	if _, err := scaleOnce(pi, []float64{120}); err != nil {
		t.Fatal(err)
	}
	pi.Reset()
	s, err = scaleOnce(pi, []float64{70})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Errorf("after Reset, PI below setpoint should be 1: %v", s)
	}
}

// A statically thermal-balanced power split needs less throttling than a
// concentrated one for the same total power — the DTM-side argument for
// the paper's thermal-aware scheduling.
func TestBalancedLoadThrottlesLess(t *testing.T) {
	m := model4(t)
	mk := func(p []float64, steps int) [][]float64 {
		out := make([][]float64, steps)
		for i := range out {
			out[i] = p
		}
		return out
	}
	ctrl, err := NewToggleController(85, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	concentrated := runOpen(t, m, ctrl, mk([]float64{15, 3, 3, 3}, 5000), 0.002)
	balanced := runOpen(t, m, ctrl, mk([]float64{6, 6, 6, 6}, 5000), 0.002)
	if balanced.slowdown >= concentrated.slowdown {
		t.Errorf("balanced slowdown %v should be below concentrated %v",
			balanced.slowdown, concentrated.slowdown)
	}
	if math.IsNaN(balanced.peak) {
		t.Error("NaN peak")
	}
}

// noopController never throttles (reference runs).
type noopController struct{}

func (noopController) ScaleInto(out, temps []float64) error {
	for i := range out {
		out[i] = 1
	}
	return nil
}

func (noopController) Reset() {}

// Controllers size their per-block state on first use; a mid-run block
// count change must be an explicit error, not a silent state discard.
func TestControllerRejectsMidRunResize(t *testing.T) {
	toggle, err := NewToggleController(80, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out4 := make([]float64, 4)
	if err := toggle.ScaleInto(out4, []float64{85, 70, 70, 70}); err != nil {
		t.Fatal(err)
	}
	if err := toggle.ScaleInto(make([]float64, 2), []float64{70, 70}); err == nil {
		t.Error("toggle accepted a block count change mid-run")
	}
	// The explicit contract: Reset starts a run with a new size.
	toggle.Reset()
	if err := toggle.ScaleInto(make([]float64, 2), []float64{70, 70}); err != nil {
		t.Errorf("toggle rejected new size after Reset: %v", err)
	}

	pi, err := NewPIController(82, 0.08, 0.004, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.ScaleInto(out4, []float64{85, 70, 70, 70}); err != nil {
		t.Fatal(err)
	}
	if err := pi.ScaleInto(make([]float64, 2), []float64{70, 70}); err == nil {
		t.Error("PI accepted a block count change mid-run")
	}
	pi.Reset()
	if err := pi.ScaleInto(make([]float64, 2), []float64{70, 70}); err != nil {
		t.Errorf("PI rejected new size after Reset: %v", err)
	}
	// Mismatched out/temps lengths are caught for both.
	if err := toggle.ScaleInto(make([]float64, 3), []float64{70, 70}); err == nil {
		t.Error("toggle accepted out/temps length mismatch")
	}
}

func TestScaleIntoZeroAllocs(t *testing.T) {
	toggle, err := NewToggleController(80, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := NewPIController(82, 0.08, 0.004, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 4)
	temps := []float64{85, 75, 70, 90}
	if err := toggle.ScaleInto(out, temps); err != nil { // size the state
		t.Fatal(err)
	}
	if err := pi.ScaleInto(out, temps); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := toggle.ScaleInto(out, temps); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ToggleController.ScaleInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := pi.ScaleInto(out, temps); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PIController.ScaleInto allocates %v per run", n)
	}
}
