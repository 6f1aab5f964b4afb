package hotspot

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"thermalsched/internal/floorplan"
)

// The influence-column fast path must reproduce the direct Cholesky
// solve: same linear system, different evaluation order.
func TestInfluenceFastPathMatchesDirect(t *testing.T) {
	fp, err := floorplan.Grid("b", 16, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, m.NumBlocks())
		for i := range p {
			p[i] = rng.Float64() * 12
		}
		fast, err1 := m.SteadyStateVec(p)
		direct, err2 := m.SteadyStateDirect(p)
		if err1 != nil || err2 != nil {
			return false
		}
		fv, dv := fast.Values(), direct.Values()
		for i := range fv {
			if math.Abs(fv[i]-dv[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Once the influence columns of the powered blocks are warm, the
// natural-order inquiry path allocates nothing.
func TestSteadyStateIntoZeroAllocs(t *testing.T) {
	checkWarmPathsZeroAllocs(t, 16)
}

// checkWarmPathsZeroAllocs warms the influence columns of a
// blocks-block grid model, then requires SteadyStateInto and
// InfluenceRow to allocate nothing per call.
func checkWarmPathsZeroAllocs(t *testing.T, blocks int) {
	t.Helper()
	m := gridModel(t, blocks)
	p := make([]float64, blocks)
	p[1], p[6], p[11] = 4, 2.5, 7
	dst := make([]float64, m.NumBlocks())
	if err := m.SteadyStateInto(dst, p); err != nil { // warm the column cache
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := m.SteadyStateInto(dst, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%d blocks: SteadyStateInto allocates %v per run after warm-up", blocks, n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.InfluenceRow(6); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%d blocks: InfluenceRow allocates %v per run after warm-up", blocks, n)
	}
}

// Concurrent first touches of the column cache (run with -race) must
// publish one column per block, bit-identical to a serially warmed
// model's, and every caller must read that same column, under either
// steady-state order.
func TestInfluenceColumnsConcurrentFirstTouch(t *testing.T) {
	const workers = 4
	for _, blocks := range []int{16, minDegreeBlocks + 4} {
		want := gridModel(t, blocks)
		m := gridModel(t, blocks)
		got := make([][][]float64, workers)
		temps := make([][]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = make([][]float64, blocks)
				for k := 0; k < blocks; k++ {
					j := (k + w*5) % blocks // each worker starts elsewhere
					col, err := m.InfluenceRow(j)
					if err != nil {
						t.Error(err)
						return
					}
					got[w][j] = col
				}
				p := make([]float64, blocks)
				for j := range p {
					p[j] = float64(j%3) + 0.5
				}
				temps[w] = make([]float64, blocks)
				if err := m.SteadyStateInto(temps[w], p); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for j := 0; j < blocks; j++ {
			ref, err := want.InfluenceRow(j)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < workers; w++ {
				if &got[w][j][0] != &got[0][j][0] {
					t.Fatalf("%d blocks: workers %d and 0 read different copies of column %d", blocks, w, j)
				}
				for i, v := range got[w][j] {
					if math.Float64bits(v) != math.Float64bits(ref[i]) {
						t.Fatalf("%d blocks: column %d entry %d = %v, serial %v", blocks, j, i, v, ref[i])
					}
				}
			}
		}
		for w := 1; w < workers; w++ {
			for i, v := range temps[w] {
				if math.Float64bits(v) != math.Float64bits(temps[0][i]) {
					t.Fatalf("%d blocks: worker %d block %d = %v, worker 0 %v", blocks, w, i, v, temps[0][i])
				}
			}
		}
	}
}

func TestSteadyStateIntoValidation(t *testing.T) {
	m := model4(t)
	dst := make([]float64, m.NumBlocks())
	if err := m.SteadyStateInto(dst, []float64{1}); err == nil {
		t.Error("short power vector accepted")
	}
	if err := m.SteadyStateInto(dst[:2], []float64{1, 1, 1, 1}); err == nil {
		t.Error("short dst accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.SteadyStateInto(dst, []float64{bad, 0, 0, 0}); err == nil {
			t.Errorf("invalid power %v accepted", bad)
		}
	}
}

// The influence columns are (G⁻¹) restricted to block nodes; G is
// symmetric, so the restriction must be too.
func TestInfluenceRowSymmetric(t *testing.T) {
	m := model4(t)
	n := m.NumBlocks()
	for i := 0; i < n; i++ {
		ri, err := m.InfluenceRow(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(ri) != n {
			t.Fatalf("row %d has %d entries, want %d", i, len(ri), n)
		}
		for j := 0; j < n; j++ {
			rj, err := m.InfluenceRow(j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ri[j]-rj[i]) > 1e-12*(1+math.Abs(ri[j])) {
				t.Errorf("S[%d][%d] = %v, S[%d][%d] = %v: not symmetric", i, j, ri[j], j, i, rj[i])
			}
			if ri[j] <= 0 {
				t.Errorf("S[%d][%d] = %v, want positive (heat always spreads)", i, j, ri[j])
			}
		}
	}
	if _, err := m.InfluenceRow(-1); err == nil {
		t.Error("negative row index accepted")
	}
	if _, err := m.InfluenceRow(n); err == nil {
		t.Error("out-of-range row index accepted")
	}
}
