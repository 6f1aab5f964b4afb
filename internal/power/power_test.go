package power

import (
	"context"
	"math"
	"testing"

	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// buildSchedule makes a small deterministic schedule on two PEs.
func buildSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	lib, err := techlib.NewLibrary(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.AddPEType(
		techlib.PEType{Name: "a", Cost: 1, Area: 1e-6, IdlePower: 0.5},
		[]techlib.Entry{{WCET: 10, WCPC: 4}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := lib.AddPEType(
		techlib.PEType{Name: "b", Cost: 1, Area: 1e-6, IdlePower: 0.25},
		[]techlib.Entry{{WCET: 20, WCPC: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.NewGraph("g", 100)
	for i := 0; i < 3; i++ {
		if err := g.AddTask(taskgraph.Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(taskgraph.Edge{From: 0, To: 2, Data: 0}); err != nil {
		t.Fatal(err)
	}
	arch := sched.Architecture{
		Name: "duo",
		PEs:  []sched.PE{{Name: "p0", Type: 0}, {Name: "p1", Type: 1}},
	}
	s, err := sched.AllocateAndSchedule(context.Background(), g, arch, lib, sched.DefaultConfig(sched.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFromScheduleBasics(t *testing.T) {
	s := buildSchedule(t)
	p, err := FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PENames) != 2 || p.PENames[0] != "p0" {
		t.Errorf("PENames = %v", p.PENames)
	}
	if p.Horizon != s.Makespan {
		t.Errorf("Horizon = %v, want %v", p.Horizon, s.Makespan)
	}
	total := 0
	for _, ivs := range p.Busy {
		total += len(ivs)
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start < ivs[i-1].Start {
				t.Error("intervals not sorted")
			}
		}
	}
	if total != 3 {
		t.Errorf("total intervals = %d, want 3", total)
	}
}

func TestFromScheduleRejectsCorrupt(t *testing.T) {
	s := buildSchedule(t)
	s.Assignments[0].Finish += 99
	if _, err := FromSchedule(s); err == nil {
		t.Error("corrupt schedule accepted")
	}
}

func TestPowerAt(t *testing.T) {
	s := buildSchedule(t)
	p, err := FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	// During the first assignment on p0, power = 4 + idle 0.5.
	var first *Interval
	for _, ivs := range p.Busy {
		if len(ivs) > 0 && (first == nil || ivs[0].Start < first.Start) {
			first = &ivs[0]
		}
	}
	if first == nil {
		t.Fatal("no intervals")
	}
	mid := (first.Start + first.Finish) / 2
	at := p.PowerAt(mid)
	found := false
	for _, v := range at {
		if v > 1 { // busy power is well above idle
			found = true
		}
	}
	if !found {
		t.Errorf("PowerAt(%v) = %v, expected a busy PE", mid, at)
	}
	// Far past the horizon everything idles.
	at = p.PowerAt(p.Horizon + 100)
	for i, v := range at {
		if v != p.IdlePower[i] {
			t.Errorf("idle PowerAt = %v", at)
			break
		}
	}
}

func TestEnergyIncludesIdle(t *testing.T) {
	s := buildSchedule(t)
	p, err := FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	e := p.Energy()
	// Busy-only energy from the schedule.
	busyOnly := s.PEEnergy()
	for i := range e {
		if e[i] < busyOnly[i] {
			t.Errorf("PE %d energy %v below busy-only %v", i, e[i], busyOnly[i])
		}
	}
}

func TestAveragePowerAndUtilization(t *testing.T) {
	s := buildSchedule(t)
	p, err := FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := p.AveragePower(p.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	e := p.Energy()
	for i := range avg {
		if math.Abs(avg[i]-e[i]/p.Horizon) > 1e-12 {
			t.Errorf("AveragePower[%d] = %v", i, avg[i])
		}
	}
	if _, err := p.AveragePower(0); err == nil {
		t.Error("zero horizon accepted")
	}
	u := p.Utilization()
	for i, v := range u {
		if v < 0 || v > 1+1e-12 {
			t.Errorf("Utilization[%d] = %v out of [0,1]", i, v)
		}
	}
}

func TestSampleConservesEnergy(t *testing.T) {
	s := buildSchedule(t)
	p, err := FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []float64{1, 3, 7.5} {
		samples, err := p.Sample(dt)
		if err != nil {
			t.Fatal(err)
		}
		// Integrate samples: all but the last cover dt, the last covers
		// the remainder of the horizon.
		got := make([]float64, len(p.Busy))
		for k, row := range samples {
			window := dt
			if rem := p.Horizon - float64(k)*dt; rem < dt {
				window = rem
			}
			for pe, v := range row {
				got[pe] += v * window
			}
		}
		want := p.Energy()
		for pe := range want {
			if math.Abs(got[pe]-want[pe]) > 1e-6*(1+want[pe]) {
				t.Errorf("dt=%v PE %d: sampled energy %v, want %v", dt, pe, got[pe], want[pe])
			}
		}
	}
	if _, err := p.Sample(0); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestLeakageModelAt(t *testing.T) {
	l := LeakageModel{Base: 1, Coeff: 0.02, RefC: 45}
	if got := l.At(45); math.Abs(got-1) > 1e-12 {
		t.Errorf("At(ref) = %v, want 1", got)
	}
	if l.At(85) <= l.At(45) {
		t.Error("leakage must grow with temperature")
	}
	// 40 °C at 0.02/°C → e^0.8 ≈ 2.23x.
	if got := l.At(85); math.Abs(got-math.Exp(0.8)) > 1e-9 {
		t.Errorf("At(85) = %v", got)
	}
}

func TestLeakageValidate(t *testing.T) {
	if err := DefaultLeakage().Validate(); err != nil {
		t.Errorf("default leakage invalid: %v", err)
	}
	if err := (LeakageModel{Base: -1}).Validate(); err == nil {
		t.Error("negative base accepted")
	}
	if err := (LeakageModel{Base: 1, Coeff: 2}).Validate(); err == nil {
		t.Error("huge coefficient accepted")
	}
}

// fakeSolver emulates a single-block thermal model with R = 2 K/W over
// 45 °C ambient.
func fakeSolver(power []float64) ([]float64, error) {
	out := make([]float64, len(power))
	for i, p := range power {
		out[i] = 45 + 2*p
	}
	return out, nil
}

func TestLeakageFixedPointConverges(t *testing.T) {
	l := LeakageModel{Base: 0.2, Coeff: 0.02, RefC: 45}
	res, err := l.FixedPoint([]float64{5, 2}, fakeSolver, 1e-9, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the fixed point: T = 45 + 2(P_dyn + leak(T)).
	for i, temp := range res.Temps {
		leak := l.At(temp)
		want := 45 + 2*(res.TotalPower[i]-res.Leakage[i]+leak)
		if math.Abs(temp-want) > 1e-6 {
			t.Errorf("block %d: T=%v inconsistent with model (want %v)", i, temp, want)
		}
		if res.Leakage[i] <= 0 || res.TotalPower[i] <= res.Leakage[i] {
			t.Errorf("block %d leakage bookkeeping wrong: %+v", i, res)
		}
	}
	if res.Iterations < 2 {
		t.Error("fixed point should take several iterations")
	}
}

func TestLeakageHotterMeansMoreLeakage(t *testing.T) {
	l := DefaultLeakage()
	cold, err := l.FixedPoint([]float64{1}, fakeSolver, 1e-9, 200)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := l.FixedPoint([]float64{10}, fakeSolver, 1e-9, 200)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Leakage[0] <= cold.Leakage[0] {
		t.Errorf("leakage should rise with load: %v vs %v", hot.Leakage[0], cold.Leakage[0])
	}
}

func TestLeakageRunawayDetected(t *testing.T) {
	// R = 50 K/W with strong exponential feedback → runaway.
	runawaySolver := func(power []float64) ([]float64, error) {
		out := make([]float64, len(power))
		for i, p := range power {
			out[i] = 45 + 50*p
		}
		return out, nil
	}
	l := LeakageModel{Base: 1, Coeff: 0.1, RefC: 45}
	if _, err := l.FixedPoint([]float64{10}, runawaySolver, 1e-9, 500); err == nil {
		t.Error("thermal runaway not detected")
	}
}

func TestLeakageFixedPointParamErrors(t *testing.T) {
	l := DefaultLeakage()
	if _, err := l.FixedPoint([]float64{1}, fakeSolver, 0, 10); err == nil {
		t.Error("zero tol accepted")
	}
	if _, err := l.FixedPoint([]float64{1}, fakeSolver, 1e-9, 0); err == nil {
		t.Error("zero maxIter accepted")
	}
	bad := LeakageModel{Base: -1}
	if _, err := bad.FixedPoint([]float64{1}, fakeSolver, 1e-9, 10); err == nil {
		t.Error("invalid model accepted")
	}
	short := func([]float64) ([]float64, error) { return []float64{1}, nil }
	if _, err := l.FixedPoint([]float64{1, 2}, short, 1e-9, 10); err == nil {
		t.Error("short solver output accepted")
	}
}
