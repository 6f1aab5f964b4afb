package hotspot

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"thermalsched/internal/floorplan"
)

func platform4(t testing.TB) *floorplan.Floorplan {
	t.Helper()
	fp, err := floorplan.Grid("pe", 4, 16e-6)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func model4(t testing.TB) *Model {
	t.Helper()
	m, err := NewModel(platform4(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := DefaultConfig()
	c.ConvectionResistance = 0
	if err := c.Validate(); err == nil {
		t.Error("zero convection resistance accepted")
	}
	c = DefaultConfig()
	c.AmbientC = -300
	if err := c.Validate(); err == nil {
		t.Error("sub-absolute-zero ambient accepted")
	}
}

func TestNewModelRejectsBadInput(t *testing.T) {
	if _, err := NewModel(floorplan.New(), DefaultConfig()); err == nil {
		t.Error("empty floorplan accepted")
	}
	bad := DefaultConfig()
	bad.DieThickness = -1
	if _, err := NewModel(platform4(t), bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestZeroPowerGivesAmbient(t *testing.T) {
	m := model4(t)
	temps, err := m.SteadyState(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range temps.Names() {
		v, _ := temps.Of(name)
		if math.Abs(v-DefaultConfig().AmbientC) > 1e-9 {
			t.Errorf("block %s at %v °C with zero power, want ambient", name, v)
		}
	}
	if temps.Spread() > 1e-9 {
		t.Errorf("zero power spread = %v", temps.Spread())
	}
}

func TestPowerRaisesTemperature(t *testing.T) {
	m := model4(t)
	temps, err := m.SteadyState(map[string]float64{"pe0": 5})
	if err != nil {
		t.Fatal(err)
	}
	t0, _ := temps.Of("pe0")
	if t0 <= DefaultConfig().AmbientC {
		t.Errorf("powered block at %v, want above ambient", t0)
	}
	// The powered block must be the hottest.
	if temps.Max() != t0 {
		t.Errorf("hottest = %v, powered block = %v", temps.Max(), t0)
	}
	// Every block is pulled above ambient by coupling.
	if temps.Min() <= DefaultConfig().AmbientC {
		t.Errorf("coolest = %v, want above ambient (coupling)", temps.Min())
	}
}

func TestNeighbourHotterThanDiagonal(t *testing.T) {
	// In a 2x2 grid: pe0 pe1 / pe2 pe3 (row-major). pe0's lateral
	// neighbours are pe1 and pe2; pe3 touches only at the corner.
	m := model4(t)
	temps, err := m.SteadyState(map[string]float64{"pe0": 8})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := temps.Of("pe1")
	t3, _ := temps.Of("pe3")
	if t1 <= t3 {
		t.Errorf("adjacent pe1 (%v) should be hotter than diagonal pe3 (%v)", t1, t3)
	}
}

func TestSpreadingLoadLowersPeak(t *testing.T) {
	// The physical effect the thermal-aware scheduler exploits: the same
	// total power spread over all PEs yields a lower peak temperature
	// than concentrated on one PE.
	m := model4(t)
	concentrated, err := m.SteadyState(map[string]float64{"pe0": 12})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := m.SteadyState(map[string]float64{"pe0": 3, "pe1": 3, "pe2": 3, "pe3": 3})
	if err != nil {
		t.Fatal(err)
	}
	if spread.Max() >= concentrated.Max() {
		t.Errorf("spread peak %v should be below concentrated peak %v",
			spread.Max(), concentrated.Max())
	}
	// Average rise is driven by total power, so averages should be close.
	if math.Abs(spread.Avg()-concentrated.Avg()) > 12 {
		t.Errorf("averages too far apart: %v vs %v", spread.Avg(), concentrated.Avg())
	}
}

func TestSteadyStateVecMatchesMap(t *testing.T) {
	m := model4(t)
	byMap, err := m.SteadyState(map[string]float64{"pe0": 2, "pe2": 4})
	if err != nil {
		t.Fatal(err)
	}
	byVec, err := m.SteadyStateVec([]float64{2, 0, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range byVec.Values() {
		if math.Abs(v-byMap.Values()[i]) > 1e-12 {
			t.Fatalf("vec/map disagree at %d: %v vs %v", i, v, byMap.Values()[i])
		}
	}
}

func TestSteadyStateErrors(t *testing.T) {
	m := model4(t)
	if _, err := m.SteadyState(map[string]float64{"nope": 1}); err == nil {
		t.Error("unknown block accepted")
	}
	if _, err := m.SteadyState(map[string]float64{"pe0": -1}); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := m.SteadyState(map[string]float64{"pe0": math.NaN()}); err == nil {
		t.Error("NaN power accepted")
	}
	if _, err := m.SteadyStateVec([]float64{1}); err == nil {
		t.Error("short power vector accepted")
	}
}

func TestTempsAccessors(t *testing.T) {
	m := model4(t)
	temps, err := m.SteadyState(map[string]float64{"pe0": 1, "pe1": 2, "pe2": 3, "pe3": 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(temps.Names()) != 4 || len(temps.Values()) != 4 {
		t.Error("Names/Values lengths wrong")
	}
	if _, ok := temps.Of("missing"); ok {
		t.Error("Of(missing) should report !ok")
	}
	if temps.Max() < temps.Avg() || temps.Avg() < temps.Min() {
		t.Error("Max/Avg/Min ordering violated")
	}
	if temps.Spread() < 0 {
		t.Error("negative spread")
	}
	if m.NumBlocks() != 4 {
		t.Errorf("NumBlocks = %d", m.NumBlocks())
	}
	if got := m.BlockNames(); len(got) != 4 || got[0] != "pe0" {
		t.Errorf("BlockNames = %v", got)
	}
}

func TestConductanceMatrixSymmetric(t *testing.T) {
	m := model4(t)
	g := m.csr.Dense()
	if !g.IsSymmetric(1e-9 * g.MaxAbs()) {
		t.Error("conductance matrix not symmetric")
	}
	// Diagonal dominance: every diagonal entry must be at least the sum
	// of the absolute off-diagonals in its row (equality off the sink row).
	for i := 0; i < g.Rows(); i++ {
		var off float64
		for j := 0; j < g.Cols(); j++ {
			if i != j {
				off += math.Abs(g.At(i, j))
			}
		}
		if g.At(i, i) < off-1e-9 {
			t.Errorf("row %d not diagonally dominant: %v < %v", i, g.At(i, i), off)
		}
	}
}

// Property: superposition — temperatures are affine in power, so
// T(a+b) − ambient = (T(a) − ambient) + (T(b) − ambient).
func TestSuperpositionProperty(t *testing.T) {
	m := model4(t)
	amb := DefaultConfig().AmbientC
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 4)
		b := make([]float64, 4)
		for i := range a {
			a[i] = rng.Float64() * 10
			b[i] = rng.Float64() * 10
		}
		sum := make([]float64, 4)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		ta, err1 := m.SteadyStateVec(a)
		tb, err2 := m.SteadyStateVec(b)
		ts, err3 := m.SteadyStateVec(sum)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range sum {
			want := (ta.Values()[i] - amb) + (tb.Values()[i] - amb)
			got := ts.Values()[i] - amb
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity — adding power to any block cannot cool any
// block (the network conductances are non-negative off-diagonal).
func TestMonotonicityProperty(t *testing.T) {
	m := model4(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]float64, 4)
		for i := range base {
			base[i] = rng.Float64() * 8
		}
		extra := make([]float64, 4)
		copy(extra, base)
		extra[rng.Intn(4)] += 1 + rng.Float64()*5
		t0, err1 := m.SteadyStateVec(base)
		t1, err2 := m.SteadyStateVec(extra)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range base {
			if t1.Values()[i] < t0.Values()[i]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The calibration target from DESIGN.md §5: paper-scale total power on
// the 4-PE platform must land peak temperatures in the paper's band.
func TestCalibrationBand(t *testing.T) {
	m := model4(t)
	// ~12 W concentrated unevenly, like a baseline (thermally unaware)
	// schedule would produce.
	temps, err := m.SteadyState(map[string]float64{"pe0": 7, "pe1": 3, "pe2": 1.5, "pe3": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if temps.Max() < 60 || temps.Max() > 135 {
		t.Errorf("peak %v °C outside plausible paper band [60, 135]", temps.Max())
	}
	if temps.Avg() < 55 || temps.Avg() > 120 {
		t.Errorf("avg %v °C outside plausible paper band [55, 120]", temps.Avg())
	}
}

func TestLargerFloorplanSolves(t *testing.T) {
	fp, err := floorplan.Grid("b", 25, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	power := make(map[string]float64)
	for i, name := range m.BlockNames() {
		power[name] = float64(i%5) * 0.5
	}
	temps, err := m.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	if temps.Max() <= temps.Min() {
		t.Error("uneven power should give uneven temperatures")
	}
}

// Building the same model twice must produce bit-identical
// temperatures: the conductance assembly walks the adjacency map in
// sorted order, because float accumulation order matters at the last
// ulp once abutting blocks have unequal conductances (heterogeneous
// generated platforms). A randomized walk made nominally identical
// models drift across builds and processes.
func TestModelBuildDeterministicHeterogeneous(t *testing.T) {
	names := []string{"pe0", "pe1", "pe2", "pe3", "pe4", "pe5"}
	areas := []float64{9.6e-6, 12e-6, 16e-6, 21e-6, 26e-6, 32e-6}
	fp, err := floorplan.GridOf(names, areas)
	if err != nil {
		t.Fatal(err)
	}
	power := []float64{3, 5, 7, 9, 11, 13}
	temps := func() []float64 {
		m, err := NewModel(fp, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ts, err := m.SteadyStateVec(power)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(names))
		for i, n := range names {
			v, ok := ts.Of(n)
			if !ok {
				t.Fatalf("missing block %s", n)
			}
			out[i] = v
		}
		return out
	}
	a := temps()
	for run := 0; run < 10; run++ {
		b := temps()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("run %d: block %s temp %v != %v (non-deterministic build)", run, names[i], b[i], a[i])
			}
		}
	}
}
