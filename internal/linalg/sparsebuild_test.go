package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// referenceBuild assembles a CSR the plain way: a counting sort by
// row, a hand-written stable insertion sort by column within each row,
// then duplicate summation in permuted order with colIdx and vals grown
// by append. SparseBuilder.Build must produce bitwise the same CSR.
func referenceBuild(n int, rows, cols []int, vals []float64) *CSR {
	next := make([]int, n+1)
	for _, i := range rows {
		next[i+1]++
	}
	for i := 0; i < n; i++ {
		next[i+1] += next[i]
	}
	perm := make([]int, len(rows))
	for p, i := range rows {
		perm[next[i]] = p
		next[i]++
	}
	lo := 0
	for _, hi := range next[:n] {
		row := perm[lo:hi]
		for x := 1; x < len(row); x++ {
			p, c := row[x], cols[row[x]]
			y := x
			for ; y > 0 && cols[row[y-1]] > c; y-- {
				row[y] = row[y-1]
			}
			row[y] = p
		}
		lo = hi
	}
	a := &CSR{n: n, rowPtr: make([]int, n+1)}
	lastI, lastJ := -1, -1
	for _, p := range perm {
		i, j, v := rows[p], cols[p], vals[p]
		if i == lastI && j == lastJ {
			a.vals[len(a.vals)-1] += v
			continue
		}
		lastI, lastJ = i, j
		a.rowPtr[i+1]++
		a.colIdx = append(a.colIdx, j)
		a.vals = append(a.vals, v)
	}
	for i := 0; i < n; i++ {
		a.rowPtr[i+1] += a.rowPtr[i]
	}
	return a
}

// requireSameCSR fails unless got and want store the same pattern and
// bitwise the same values.
func requireSameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.n != want.n || len(got.rowPtr) != len(want.rowPtr) || len(got.colIdx) != len(want.colIdx) || len(got.vals) != len(want.vals) {
		t.Fatalf("shape: n %d/%d, rowPtr %d/%d, nnz %d/%d", got.n, want.n, len(got.rowPtr), len(want.rowPtr), len(got.vals), len(want.vals))
	}
	for i := range want.rowPtr {
		if got.rowPtr[i] != want.rowPtr[i] {
			t.Fatalf("rowPtr[%d] = %d, reference %d", i, got.rowPtr[i], want.rowPtr[i])
		}
	}
	for k := range want.colIdx {
		if got.colIdx[k] != want.colIdx[k] {
			t.Fatalf("colIdx[%d] = %d, reference %d", k, got.colIdx[k], want.colIdx[k])
		}
		if math.Float64bits(got.vals[k]) != math.Float64bits(want.vals[k]) {
			t.Fatalf("vals[%d] = %v, reference %v", k, got.vals[k], want.vals[k])
		}
	}
}

// buildBoth replays one triplet log into b (after Reset) and into the
// reference, and requires the same CSR from Build and from BuildInto
// over into, a matrix the caller reuses across logs.
func buildBoth(t *testing.T, b *SparseBuilder, into *CSR, n int, rows, cols []int, vals []float64) {
	t.Helper()
	b.Reset(n)
	for k := range rows {
		b.Add(rows[k], cols[k], vals[k])
	}
	want := referenceBuild(n, rows, cols, vals)
	requireSameCSR(t, b.Build(), want)
	b.BuildInto(into)
	requireSameCSR(t, into, want)
}

// Build matches the reference bit for bit on random
// triplet logs with repeated coordinates and magnitudes far apart (so
// the summation order shows in the last bits): scattered rows, empty
// rows, and one 4096-entry row, the thermal network's heat-sink row
// pattern that cost the insertion sort O(n²) moves. One builder serves
// every log through Reset, so reused scratch must not leak between
// builds.
func TestSparseBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	value := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(33)-16)) }
	b := NewSparseBuilder(1)
	into := new(CSR)
	cases := []struct {
		name    string
		n, adds int
		row     func() int
	}{
		{"scattered", 40, 900, func() int { return rng.Intn(40) }},
		{"empty rows", 30, 500, func() int { return 5 * rng.Intn(6) }},
		{"sink row", 300, 4096, func() int { return 299 }},
		{"sink row and scatter", 300, 6000, func() int {
			if rng.Intn(3) > 0 {
				return 299
			}
			return rng.Intn(300)
		}},
		{"single entry", 3, 1, func() int { return 1 }},
	}
	for _, tc := range cases {
		for trial := 0; trial < 5; trial++ {
			rows := make([]int, tc.adds)
			cols := make([]int, tc.adds)
			vals := make([]float64, tc.adds)
			for k := range rows {
				rows[k], cols[k], vals[k] = tc.row(), rng.Intn(tc.n), value()
			}
			t.Run(tc.name, func(t *testing.T) { buildBoth(t, b, into, tc.n, rows, cols, vals) })
		}
	}
}

// Build sizes its CSR once from the deduplicated count and keeps its
// row cursors and permutation in the builder, so a warm build of a
// hotspot-sized log (a 24-block thermal network: 50 nodes, about 600
// triplets with duplicates on every diagonal) makes exactly four
// allocations: the CSR header, rowPtr, colIdx and vals.
func TestSparseBuilderBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const blocks = 24
	n := 2*blocks + 2
	b := NewSparseBuilder(n)
	conductance := func(i, j int, g float64) {
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.Add(i, j, -g)
		b.Add(j, i, -g)
	}
	for i := 0; i+1 < blocks; i++ {
		conductance(i, i+1, 0.1)
		conductance(blocks+i, blocks+i+1, 2.5)
	}
	for i := 0; i < blocks; i++ {
		conductance(blocks+i, 2*blocks, 1.5)
		conductance(i, blocks+i, 3)
		conductance(blocks+i, 2*blocks+1, 0.7)
	}
	conductance(2*blocks, 2*blocks+1, 0.4)
	b.Add(2*blocks+1, 2*blocks+1, 10)
	if got := testing.AllocsPerRun(20, func() { b.Build() }); got != 4 {
		t.Errorf("Build makes %v allocations per run, want 4", got)
	}
}

// BuildInto over a matrix that has held the same pattern reuses its
// arrays and the builder's scratch: a warm build allocates nothing.
func TestSparseBuilderBuildIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	_, a := gridLaplacian(6, 6, 0.5, 0.02)
	b := NewSparseBuilder(a.N())
	for i := 0; i < a.N(); i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			b.Add(i, a.colIdx[k], a.vals[k])
		}
	}
	into := new(CSR)
	b.BuildInto(into)
	if got := testing.AllocsPerRun(20, func() { b.BuildInto(into) }); got != 0 {
		t.Errorf("warm BuildInto makes %v allocations per run, want 0", got)
	}
	requireSameCSR(t, into, a)
}

// FuzzSparseBuilder checks Build against the reference on
// arbitrary triplet logs. The first byte sets the dimension (1–64);
// each following 3-byte group is one Add: row and column modulo the
// dimension, and a value byte spread over magnitudes 1e-8 to 1e8 with
// its sign, so duplicate sums round differently in different orders.
// The log then replays reversed through the same builder after Reset.
func FuzzSparseBuilder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 0, 200, 2, 1, 7, 0, 0, 3})
	f.Add([]byte{1, 0, 0, 5, 0, 0, 250, 0, 0, 1})
	f.Add([]byte{8, 7, 1, 1, 7, 0, 2, 7, 7, 3, 7, 1, 130, 0, 7, 9, 7, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%64
		var rows, cols []int
		var vals []float64
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			v := math.Pow(10, float64(rest[2]%17)-8)
			if rest[2]&0x80 != 0 {
				v = -v
			}
			rows = append(rows, int(rest[0])%n)
			cols = append(cols, int(rest[1])%n)
			vals = append(vals, v)
		}
		b := NewSparseBuilder(n)
		into := new(CSR)
		buildBoth(t, b, into, n, rows, cols, vals)
		// Reversed, through the reused builder, at a dimension up to
		// three larger.
		for x, y := 0, len(rows)-1; x < y; x, y = x+1, y-1 {
			rows[x], rows[y] = rows[y], rows[x]
			cols[x], cols[y] = cols[y], cols[x]
			vals[x], vals[y] = vals[y], vals[x]
		}
		buildBoth(t, b, into, n+int(data[0])/64, rows, cols, vals)
	})
}
