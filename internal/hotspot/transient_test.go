package hotspot

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/linalg"
)

func TestTransientStartsAtAmbient(t *testing.T) {
	m := model4(t)
	tr, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	temps := tr.Temps()
	if math.Abs(temps.Max()-DefaultConfig().AmbientC) > 1e-9 {
		t.Errorf("initial temp %v, want ambient", temps.Max())
	}
	if tr.Time() != 0 {
		t.Errorf("initial time %v", tr.Time())
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := model4(t)
	power := map[string]float64{"pe0": 4, "pe1": 2, "pe2": 1, "pe3": 3}
	want, err := m.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(0.5)
	if err != nil {
		t.Fatal(err)
	}
	var got Temps
	// The sink has hundreds of J/K and ~2 K/W to ambient: settle for a
	// long simulated time.
	for i := 0; i < 20000; i++ {
		got, err = tr.Step(power)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range got.Values() {
		if math.Abs(v-want.Values()[i]) > 0.05 {
			t.Errorf("block %d transient %v vs steady %v", i, v, want.Values()[i])
		}
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	m := model4(t)
	tr, err := m.NewTransient(0.1)
	if err != nil {
		t.Fatal(err)
	}
	power := map[string]float64{"pe0": 5}
	prev := -math.MaxFloat64
	for i := 0; i < 100; i++ {
		temps, err := tr.Step(power)
		if err != nil {
			t.Fatal(err)
		}
		if max := temps.Max(); max < prev-1e-9 {
			t.Fatalf("warm-up not monotone at step %d: %v < %v", i, max, prev)
		} else {
			prev = max
		}
	}
	if math.Abs(tr.Time()-10.0) > 1e-9 {
		t.Errorf("Time = %v, want 10", tr.Time())
	}
}

func TestTransientCooldown(t *testing.T) {
	m := model4(t)
	tr, err := m.NewTransient(0.1)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]float64{"pe0": 10}
	for i := 0; i < 200; i++ {
		if _, err := tr.Step(hot); err != nil {
			t.Fatal(err)
		}
	}
	peakAfterHeat := tr.Temps().Max()
	for i := 0; i < 200; i++ {
		if _, err := tr.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	peakAfterCool := tr.Temps().Max()
	if peakAfterCool >= peakAfterHeat {
		t.Errorf("cooling failed: %v -> %v", peakAfterHeat, peakAfterCool)
	}
	tr.Reset()
	if tr.Time() != 0 || math.Abs(tr.Temps().Max()-DefaultConfig().AmbientC) > 1e-9 {
		t.Error("Reset did not restore ambient state")
	}
}

func TestTransientRunAndErrors(t *testing.T) {
	m := model4(t)
	tr, err := m.NewTransient(0.05)
	if err != nil {
		t.Fatal(err)
	}
	samples := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}}
	traj, err := tr.Run(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 3 {
		t.Fatalf("trajectory length %d", len(traj))
	}
	if _, err := tr.StepVec([]float64{1}); err == nil {
		t.Error("short power vector accepted")
	}
	if _, err := tr.Step(map[string]float64{"bogus": 1}); err == nil {
		t.Error("unknown block accepted")
	}
	if _, err := m.NewTransient(-1); err == nil {
		t.Error("negative dt accepted")
	}
}

func TestStepVecIntoMatchesStepVecAndDoesNotAllocate(t *testing.T) {
	m := model4(t)
	trA, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{6, 1, 0, 3}
	dst := make([]float64, m.NumBlocks())
	for step := 0; step < 25; step++ {
		want, err := trA.StepVec(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := trB.StepVecInto(dst, p); err != nil {
			t.Fatal(err)
		}
		wv := want.Values()
		for i := range dst {
			if dst[i] != wv[i] {
				t.Fatalf("step %d block %d: StepVecInto %v, StepVec %v", step, i, dst[i], wv[i])
			}
		}
	}
	if err := trB.StepVecInto(dst, []float64{1}); err == nil {
		t.Error("short power vector accepted")
	}
	if err := trB.StepVecInto(dst[:1], p); err == nil {
		t.Error("short dst accepted")
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := trB.StepVecInto(dst, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("StepVecInto allocates %v per run", n)
	}
}

// A transient warm-started from SteadyNodeRise is at a fixed point:
// stepping it under the same power must not move the block temperatures,
// and they must match the steady-state solve exactly.
func TestSetRiseWarmStartIsFixedPoint(t *testing.T) {
	m := model4(t)
	power := []float64{4, 2, 1, 3}
	rise, err := m.SteadyNodeRise(power)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SteadyStateVec(power)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRise(rise); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m.NumBlocks())
	for step := 0; step < 10; step++ {
		if err := tr.StepVecInto(got, power); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range m.BlockNames() {
		w, _ := want.Of(name)
		if math.Abs(got[i]-w) > 1e-9 {
			t.Errorf("block %s drifted to %v from steady %v", name, got[i], w)
		}
	}

	// Shape errors are rejected.
	if _, err := m.SteadyNodeRise(power[:2]); err == nil {
		t.Error("short power vector accepted")
	}
	if err := tr.SetRise(rise[:3]); err == nil {
		t.Error("short rise vector accepted")
	}
}

// freshTransient returns a transient over a factorization of its own:
// a new backward-Euler factor of the model's conductance matrix under
// the same min-degree order, bypassing the model's step memo.
func freshTransient(t *testing.T, m *Model, dt float64) *Transient {
	t.Helper()
	f, err := linalg.NewBackwardEulerFactor(m.csr, m.caps, dt, linalg.MinDegreeOrdering(m.csr))
	if err != nil {
		t.Fatal(err)
	}
	return &Transient{m: m, stepper: f.NewStepper(), state: make([]float64, m.total),
		next: make([]float64, m.total), pbuf: make([]float64, m.total)}
}

// freshStepRise integrates block b's unit-step self-response on a
// stepper with a factorization of its own — the unmemoized path
// StepRise must reproduce bit for bit.
func freshStepRise(t *testing.T, m *Model, b int, dt float64, steps int) []float64 {
	t.Helper()
	tr := freshTransient(t, m, dt)
	unit := make([]float64, m.n)
	unit[b] = 1
	temps := make([]float64, m.n)
	out := make([]float64, steps)
	for i := range out {
		if err := tr.StepVecInto(temps, unit); err != nil {
			t.Fatal(err)
		}
		out[i] = temps[b] - m.cfg.AmbientC
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// StepRise memoizes per (block, dt) and extends on demand; whichever
// length is asked first, every answer is bit-identical to a fresh
// integration, across step sizes and past memo eviction.
func TestStepRiseMatchesFreshIntegration(t *testing.T) {
	const short, long = 7, 60
	for _, order := range [][]int{{short, long}, {long, short}} {
		m := model4(t)
		ref := model4(t)
		// More step sizes than the memo keeps, revisited, so evicted
		// entries are rebuilt.
		dts := []float64{0.01, 0.05, 0.2, 0.5, 1, 0.01}
		for _, dt := range dts {
			for b := 0; b < m.NumBlocks(); b++ {
				want := freshStepRise(t, ref, b, dt, long)
				for _, steps := range order {
					got, err := m.StepRise(b, dt, steps)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want[:steps]) {
						t.Fatalf("order %v dt %g block %d: %d-step curve differs from a fresh integration",
							order, dt, b, steps)
					}
				}
			}
		}
		if len(m.stepMemos) > maxStepMemos {
			t.Errorf("%d step sizes memoized, want at most %d", len(m.stepMemos), maxStepMemos)
		}
	}
}

// Transients built on the shared factorization step bit-identically to
// one with its own factorization.
func TestNewTransientSharedFactorMatchesFresh(t *testing.T) {
	m := model4(t)
	if _, err := m.StepRise(1, 0.05, 3); err != nil { // memoize the factor first
		t.Fatal(err)
	}
	shared, err := m.NewTransient(0.05)
	if err != nil {
		t.Fatal(err)
	}
	own := freshTransient(t, m, 0.05)
	p := []float64{6, 1, 0, 3}
	a, b := make([]float64, m.n), make([]float64, m.n)
	for step := 0; step < 40; step++ {
		if err := shared.StepVecInto(a, p); err != nil {
			t.Fatal(err)
		}
		if err := own.StepVecInto(b, p); err != nil {
			t.Fatal(err)
		}
		if !sameBits(a, b) {
			t.Fatalf("step %d: shared-factor temps %v, own-factor temps %v", step, a, b)
		}
	}
}

func TestStepRiseValidation(t *testing.T) {
	m := model4(t)
	if _, err := m.StepRise(-1, 0.1, 3); err == nil {
		t.Error("negative block accepted")
	}
	if _, err := m.StepRise(m.NumBlocks(), 0.1, 3); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := m.StepRise(0, 0.1, -1); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := m.StepRise(0, 0, 3); err == nil {
		t.Error("zero step accepted")
	}
	if got, err := m.StepRise(0, 0.1, 0); err != nil || len(got) != 0 {
		t.Errorf("zero-length curve = %v, %v", got, err)
	}
}

// benchFloorplans are the co-synthesis floorplans of the paper
// benchmarks Bm1–Bm4 (maxPEs 4, two floorplanning generations, seed 1),
// in HotSpot .flp form: heterogeneous blocks whose unequal conductances
// exercise the elimination order harder than a uniform grid.
var benchFloorplans = map[string]string{
	"Bm1": `pe3	0.00353553391	0.00707106781	0	0
pe1	0.00507092553	0.00709929574	0.00353553391	0
pe2	0.00353553391	0.00707106781	0.00860645943	0
pe0	0.00353553391	0.00707106781	0.0121419933	0`,
	"Bm2": `pe0	0.00707106781	0.00353553391	0	0
pe1	0.00707106781	0.00353553391	0	0.00353553391
pe2	0.00447213595	0.00357770876	0	0.00707106781
pe3	0.00253546276	0.00354964787	0.00447213595	0.00707106781`,
	"Bm3": `pe3	0.00424264069	0.00212132034	0	0
pe0	0.00422577127	0.00591607978	0	0.00212132034
pe2	0.00424264069	0.00848528137	0	0.00803740013
pe1	0.00422577127	0.00591607978	0	0.0165226815`,
	"Bm4": `pe0	0.00707106781	0.00353553391	0	0
pe3	0.00253546276	0.00354964787	0	0.00353553391
pe2	0.00447213595	0.00357770876	0.00253546276	0.00353553391
pe1	0.00707106781	0.00353553391	0	0.00711324267`,
}

// namedFloorplan is one transient test floorplan.
type namedFloorplan struct {
	name string
	fp   *floorplan.Floorplan
}

// transientFloorplans returns the Bm1–Bm4 floorplans and a 64-block
// grid.
func transientFloorplans(t *testing.T) []namedFloorplan {
	t.Helper()
	var out []namedFloorplan
	for _, name := range []string{"Bm1", "Bm2", "Bm3", "Bm4"} {
		fp, err := floorplan.Read(strings.NewReader(benchFloorplans[name]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedFloorplan{name, fp})
	}
	grid, err := floorplan.Grid("b", 64, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, namedFloorplan{"grid64", grid})
}

// randomPowers returns steps block-power vectors of seeded random
// watts, about a quarter of them zero (idle blocks).
func randomPowers(seed int64, steps, blocks int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, steps)
	for i := range out {
		p := make([]float64, blocks)
		for j := range p {
			if rng.Intn(4) != 0 {
				p[j] = 6 * rng.Float64()
			}
		}
		out[i] = p
	}
	return out
}

// The min-degree integrator agrees with a natural-order integration of
// the same backward-Euler system (whose factor the linalg tests pin bit
// for bit to a dense Cholesky) to 1e-9 K on every node over 2000 steps
// of random power.
func TestTransientMatchesDenseReference(t *testing.T) {
	const dt, steps = 0.05, 2000
	for _, nf := range transientFloorplans(t) {
		name, fp := nf.name, nf.fp
		for _, solver := range SolverNames() {
			cfg := DefaultConfig()
			cfg.Solver = solver
			m, err := NewModel(fp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := linalg.NewBackwardEulerFactor(m.csr, m.caps, dt, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := ref.NewStepper()
			tr, err := m.NewTransient(dt)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, m.total)
			pfull := make([]float64, m.total)
			temps := make([]float64, m.n)
			var worst float64
			for step, p := range randomPowers(int64(m.n), steps, m.n) {
				if err := tr.StepVecInto(temps, p); err != nil {
					t.Fatal(err)
				}
				copy(pfull, p)
				if err := st.StepInto(x, x, pfull); err != nil {
					t.Fatal(err)
				}
				for i, v := range x {
					d := math.Abs(tr.state[i] - v)
					worst = math.Max(worst, d)
					if d > 1e-9 {
						t.Fatalf("%s/%s step %d node %d: %v, natural-order reference %v", name, solver, step, i, tr.state[i], v)
					}
				}
			}
			t.Logf("%s/%s: max |dT| %.3g K over %d steps", name, solver, worst, steps)
		}
	}
}

// Dense- and sparse-backend models of one floorplan step transients
// through the same factor under the same order, so trajectories and
// step-rise curves agree bit for bit: a transient never depends on the
// steady-state backend.
func TestTransientBackendIndependent(t *testing.T) {
	const dt = 0.02
	for _, nf := range transientFloorplans(t) {
		name, fp := nf.name, nf.fp
		models := make([]*Model, 0, 2)
		trs := make([]*Transient, 0, 2)
		for _, solver := range []string{SolverDense, SolverSparse} {
			cfg := DefaultConfig()
			cfg.Solver = solver
			m, err := NewModel(fp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := m.NewTransient(dt)
			if err != nil {
				t.Fatal(err)
			}
			models, trs = append(models, m), append(trs, tr)
		}
		n := models[0].NumBlocks()
		a, b := make([]float64, n), make([]float64, n)
		for step, p := range randomPowers(7, 300, n) {
			if err := trs[0].StepVecInto(a, p); err != nil {
				t.Fatal(err)
			}
			if err := trs[1].StepVecInto(b, p); err != nil {
				t.Fatal(err)
			}
			if !sameBits(a, b) {
				t.Fatalf("%s step %d: dense-backend temps %v, sparse-backend temps %v", name, step, a, b)
			}
		}
		for blk := 0; blk < n; blk++ {
			ra, err := models[0].StepRise(blk, dt, 40)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := models[1].StepRise(blk, dt, 40)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(ra, rb) {
				t.Fatalf("%s block %d: step-rise curves differ across backends", name, blk)
			}
		}
	}
}
