package hotspot

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/geom"
)

// modelPeak is the path SteadyPeak must reproduce: a full model build,
// a steady-state solve and the hottest block.
func modelPeak(fp *floorplan.Floorplan, cfg Config, power map[string]float64) (float64, error) {
	m, err := NewModel(fp, cfg)
	if err != nil {
		return 0, err
	}
	t, err := m.SteadyState(power)
	if err != nil {
		return 0, err
	}
	return t.Max(), nil
}

// requireSamePeak fails unless s.steadyPeak and modelPeak return the
// same bits, or errors with the same text.
func requireSamePeak(t testing.TB, s *scratch, fp *floorplan.Floorplan, cfg Config, power map[string]float64) {
	t.Helper()
	want, werr := modelPeak(fp, cfg, power)
	got, gerr := s.steadyPeak(fp, cfg, power)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%d blocks: SteadyPeak error %v, model path %v", fp.NumBlocks(), gerr, werr)
	}
	if werr == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%d blocks: SteadyPeak = %v, model path %v", fp.NumBlocks(), got, want)
	}
}

// randomPlan packs a random slicing expression over n flexible blocks
// of random areas, named b0..b(n-1).
func randomPlan(t testing.TB, n int, rng *rand.Rand) *floorplan.Floorplan {
	t.Helper()
	blocks := make([]floorplan.Block, n)
	for i := range blocks {
		lo := 0.3 + rng.Float64()
		blocks[i] = floorplan.Block{
			Name: fmt.Sprintf("b%d", i), Area: 1e-6 * (1 + 30*rng.Float64()),
			MinAspect: lo, MaxAspect: lo * (1 + 2*rng.Float64()),
		}
	}
	fp, _, err := floorplan.Pack(randomExpression(n, rng.Perm(n), func() bool { return rng.Intn(2) == 0 }), blocks)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// randomExpression returns a valid Polish expression over the operand
// order perm: coin decides, whenever both are legal, whether the next
// gene is an operator (true) or an operand, and the cut directions.
func randomExpression(n int, perm []int, coin func() bool) floorplan.Expression {
	e := make(floorplan.Expression, 0, 2*n-1)
	operands, depth := 0, 0
	for len(e) < 2*n-1 {
		if operands < n && (depth < 2 || !coin()) {
			e = append(e, floorplan.Gene(perm[operands]))
			operands++
			depth++
			continue
		}
		op := floorplan.OpH
		if coin() {
			op = floorplan.OpV
		}
		e = append(e, op)
		depth--
	}
	return e
}

// randomPower gives most blocks of fp a random power and leaves the
// rest out of the map, so they dissipate zero.
func randomPower(fp *floorplan.Floorplan, rng *rand.Rand) map[string]float64 {
	power := map[string]float64{}
	for _, name := range fp.Names() {
		if rng.Intn(4) > 0 {
			power[name] = 10 * rng.Float64()
		}
	}
	return power
}

// SteadyPeak is bit for bit the model path's peak on random slicing
// plans of 1–40 blocks, on both sides of minDegreeBlocks, and fails
// with the model path's error on bad input. One scratch serves every
// plan, from large to small to large, so a residue of an earlier plan
// (a longer triplet log, a bigger factor, a failed factorization or a
// dirty power vector) would show.
func TestSteadyPeakMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := DefaultConfig()
	var s scratch
	sizes := []int{40, 1, 33, 2, minDegreeBlocks, 5, minDegreeBlocks - 1, 40, 3, 24, 1, 36}
	for trial := 0; trial < 40; trial++ {
		sizes = append(sizes, 1+rng.Intn(40))
	}
	for _, n := range sizes {
		fp := randomPlan(t, n, rng)
		power := randomPower(fp, rng)
		requireSamePeak(t, &s, fp, cfg, power)

		// Power errors, each after a good solve on the same scratch.
		for _, w := range []float64{math.NaN(), -1, math.Inf(1)} {
			bad := map[string]float64{"b0": w}
			for name, p := range power {
				bad[name+"x"] = p // unknown blocks sort after their valid prefix
			}
			requireSamePeak(t, &s, fp, cfg, bad)
			requireSamePeak(t, &s, fp, cfg, power)
		}
	}
	// The first invalid entry in name order is the one reported.
	fp := randomPlan(t, 6, rng)
	requireSamePeak(t, &s, fp, cfg, map[string]float64{"b3": -2, "b1": math.NaN(), "a": 1})
	requireSamePeak(t, &s, fp, cfg, map[string]float64{"zz": 1, "b2": 3})

	// Bad floorplans and configurations.
	overlap := floorplan.New()
	for _, b := range []struct {
		name string
		r    geom.Rect
	}{{"a", geom.NewRect(0, 0, 2e-3, 2e-3)}, {"b", geom.NewRect(2e-3, 0, 1e-3, 1e-3)}, {"c", geom.NewRect(1e-3, 1e-3, 2e-3, 2e-3)}} {
		if err := overlap.AddBlock(b.name, b.r); err != nil {
			t.Fatal(err)
		}
	}
	requireSamePeak(t, &s, overlap, cfg, map[string]float64{"a": 1})
	requireSamePeak(t, &s, floorplan.New(), cfg, nil)
	badCfg := cfg
	badCfg.ConvectionResistance = 0
	requireSamePeak(t, &s, fp, badCfg, map[string]float64{"b0": 1})
	requireSamePeak(t, &s, fp, cfg, map[string]float64{"b0": 1})

	// The pooled entry point agrees too.
	got, err := SteadyPeak(fp, cfg, map[string]float64{"b0": 1})
	want, _ := modelPeak(fp, cfg, map[string]float64{"b0": 1})
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SteadyPeak = %v, %v; model path %v", got, err, want)
	}
}

// FuzzSteadyPeak checks SteadyPeak against the model path, bit for
// bit or error for error, over fuzzed slicing plans. The first byte
// sets the block count (1–40); each block then takes two bytes (area
// and aspect range) and the rest of the data drives the expression's
// shape, its operand order and the block powers, a zero byte leaving a
// block out of the map and 255 giving it NaN watts.
func FuzzSteadyPeak(f *testing.F) {
	f.Add([]byte{3, 10, 20, 30, 40, 50, 60, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 7, 7})
	f.Add(append([]byte{39}, make([]byte, 120)...))
	f.Add([]byte{33, 200, 1, 9, 255, 17, 0, 4, 128, 66, 3, 3, 3, 90, 12, 255, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%40
		next := byteStream(data[1:])
		blocks := make([]floorplan.Block, n)
		for i := range blocks {
			lo := 0.25 + float64(next()%8)/4
			blocks[i] = floorplan.Block{
				Name: fmt.Sprintf("b%d", i), Area: 1e-6 * (0.5 + float64(next())),
				MinAspect: lo, MaxAspect: lo * (1 + float64(next()%4)),
			}
		}
		perm := make([]int, n)
		for i := range perm {
			j := int(next()) % (i + 1)
			perm[i], perm[j] = perm[j], i
		}
		e := randomExpression(n, perm, func() bool { return next()&1 == 1 })
		fp, _, err := floorplan.Pack(e, blocks)
		if err != nil {
			t.Fatalf("Pack(%v): %v", e, err)
		}
		power := map[string]float64{}
		for i := 0; i < n; i++ {
			switch b := next(); b {
			case 0:
			case 255:
				power[blocks[i].Name] = math.NaN()
			default:
				power[blocks[i].Name] = float64(b) / 16
			}
		}
		var s scratch
		requireSamePeak(t, &s, fp, DefaultConfig(), power)
		// Reused at once on a plan of the other side of the
		// min-degree threshold.
		requireSamePeak(t, &s, randomPlan(t, 1+(n+minDegreeBlocks/2)%40, rand.New(rand.NewSource(int64(n)))), DefaultConfig(), nil)
		requireSamePeak(t, &s, fp, DefaultConfig(), power)
	})
}

// byteStream returns a generator over data's bytes, then over a
// fixed counter pattern once data runs out.
func byteStream(data []byte) func() byte {
	k := 0
	return func() byte {
		k++
		if k <= len(data) {
			return data[k-1]
		}
		return byte(37 * k)
	}
}
