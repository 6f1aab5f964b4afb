package floorplan

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func squareBlocks(n int, area float64) []Block {
	bs := make([]Block, n)
	for i := range bs {
		bs[i] = Block{Name: string(rune('a' + i)), Area: area, MinAspect: 1, MaxAspect: 1}
	}
	return bs
}

func flexBlocks(n int, area float64) []Block {
	bs := make([]Block, n)
	for i := range bs {
		bs[i] = Block{Name: string(rune('a' + i)), Area: area, MinAspect: 0.5, MaxAspect: 2}
	}
	return bs
}

// checkExpression is validExpression with fresh operand marks.
func checkExpression(e Expression, n int) error {
	return validExpression(e, n, make([]bool, n))
}

func TestValidExpression(t *testing.T) {
	cases := []struct {
		name string
		e    Expression
		n    int
		ok   bool
	}{
		{"single", Expression{0}, 1, true},
		{"pair", Expression{0, 1, OpV}, 2, true},
		{"chain", Expression{0, 1, OpV, 2, OpH}, 3, true},
		{"balanced", Expression{0, 1, OpV, 2, 3, OpH, OpV}, 4, true},
		{"wrong length", Expression{0, 1}, 2, false},
		{"ballot violation", Expression{0, OpV, 1}, 2, false},
		{"repeat operand", Expression{0, 0, OpV}, 2, false},
		{"out of range", Expression{0, 5, OpV}, 2, false},
		{"leading operator", Expression{OpH, 0, 1}, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkExpression(tc.e, tc.n)
			if (err == nil) != tc.ok {
				t.Errorf("validExpression(%v, %d) err = %v, want ok=%v", tc.e, tc.n, err, tc.ok)
			}
		})
	}
}

func TestInitialExpressionValid(t *testing.T) {
	for n := 1; n <= 20; n++ {
		if err := checkExpression(InitialExpression(n), n); err != nil {
			t.Errorf("InitialExpression(%d) invalid: %v", n, err)
		}
	}
}

func TestPackTwoBlocksVertical(t *testing.T) {
	blocks := squareBlocks(2, 1.0)
	fp, area, err := Pack(Expression{0, 1, OpV}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(area-2) > 1e-9 {
		t.Errorf("area = %v, want 2", area)
	}
	ra, _ := fp.Rect("a")
	rb, _ := fp.Rect("b")
	if math.Abs(rb.X-ra.MaxX()) > 1e-9 {
		t.Errorf("vertical cut should place b to the right of a: %v %v", ra, rb)
	}
	if err := fp.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPackTwoBlocksHorizontal(t *testing.T) {
	blocks := squareBlocks(2, 1.0)
	fp, _, err := Pack(Expression{0, 1, OpH}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := fp.Rect("a")
	rb, _ := fp.Rect("b")
	if math.Abs(rb.Y-ra.MaxY()) > 1e-9 {
		t.Errorf("horizontal cut should stack b on a: %v %v", ra, rb)
	}
}

func TestPackFourSquareGridLikeArea(t *testing.T) {
	// (a|b) stacked on (c|d) should give a 2x2 arrangement of unit squares.
	blocks := squareBlocks(4, 1.0)
	e := Expression{0, 1, OpV, 2, 3, OpV, OpH}
	fp, area, err := Pack(e, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(area-4) > 1e-9 {
		t.Errorf("area = %v, want 4 (perfect packing)", area)
	}
	if err := fp.Validate(); err != nil {
		t.Error(err)
	}
	if ds := fp.Deadspace(); ds > 1e-9 {
		t.Errorf("deadspace = %v, want 0", ds)
	}
}

func TestPackFlexibleBlocksBeatsRigidChain(t *testing.T) {
	// With flexible aspect ratios, a chain of 3 blocks can fill better
	// than with rigid unit squares.
	rigid, _, err := Pack(InitialExpression(3), squareBlocks(3, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	flex, _, err := Pack(InitialExpression(3), flexBlocks(3, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if flex.Area() > rigid.Area()+1e-9 {
		t.Errorf("flexible packing (%v) should not be worse than rigid (%v)",
			flex.Area(), rigid.Area())
	}
}

func TestPackPreservesBlockAreas(t *testing.T) {
	blocks := flexBlocks(5, 2.5e-6)
	fp, _, err := Pack(InitialExpression(5), blocks)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		r, ok := fp.Rect(b.Name)
		if !ok {
			t.Fatalf("block %q missing", b.Name)
		}
		if math.Abs(r.Area()-b.Area) > 1e-12 {
			t.Errorf("block %q area %v, want %v", b.Name, r.Area(), b.Area)
		}
		ar := r.H / r.W
		if ar < b.MinAspect-1e-9 || ar > b.MaxAspect+1e-9 {
			t.Errorf("block %q aspect %v outside [%v, %v]", b.Name, ar, b.MinAspect, b.MaxAspect)
		}
	}
}

func TestPackRejectsBadInput(t *testing.T) {
	if _, _, err := Pack(Expression{0}, []Block{{Name: "x", Area: -1, MinAspect: 1, MaxAspect: 1}}); err == nil {
		t.Error("negative area accepted")
	}
	if _, _, err := Pack(Expression{0, OpV}, squareBlocks(2, 1)); err == nil {
		t.Error("invalid expression accepted")
	}
}

func TestPackSingleBlock(t *testing.T) {
	fp, area, err := Pack(Expression{0}, squareBlocks(1, 4.0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(area-4) > 1e-9 {
		t.Errorf("area = %v", area)
	}
	if fp.NumBlocks() != 1 {
		t.Error("single block plan wrong")
	}
}

// Property: any valid random expression packs into a valid (overlap-free)
// floorplan containing every block with its exact area, and the bounding
// box area is at least the sum of block areas.
func TestPackRandomExpressionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		blocks := flexBlocks(n, 1e-6*(0.5+rng.Float64()))
		e := randomExpression(n, rng)
		if err := checkExpression(e, n); err != nil {
			return false
		}
		fp, area, err := Pack(e, blocks)
		if err != nil {
			return false
		}
		if fp.Validate() != nil || fp.NumBlocks() != n {
			return false
		}
		var blockArea float64
		for _, b := range blocks {
			blockArea += b.Area
		}
		return area >= blockArea-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomExpression builds a valid random Polish expression by stack
// simulation: at each step, emit an operand if any remain, or an operator
// if the stack allows; choose randomly when both are possible.
func randomExpression(n int, rng *rand.Rand) Expression {
	perm := rng.Perm(n)
	e := make(Expression, 0, 2*n-1)
	next, stack := 0, 0
	for len(e) < 2*n-1 {
		canOperand := next < n
		canOperator := stack >= 2
		var emitOperand bool
		switch {
		case canOperand && canOperator:
			emitOperand = rng.Intn(2) == 0
		case canOperand:
			emitOperand = true
		default:
			emitOperand = false
		}
		if emitOperand {
			e = append(e, Gene(perm[next]))
			next++
			stack++
		} else {
			if rng.Intn(2) == 0 {
				e = append(e, OpH)
			} else {
				e = append(e, OpV)
			}
			stack--
		}
	}
	return e
}

// Property: mutation preserves expression validity.
func TestMutatePreservesValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		e := randomExpression(n, rng)
		for k := 0; k < 10; k++ {
			e = mutateExpr(e, rng, 1)
			if checkExpression(e, n) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: crossover of two valid parents yields a valid child.
func TestCrossoverPreservesValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomExpression(n, rng)
		b := randomExpression(n, rng)
		c := crossover(a, b, n, rng)
		return checkExpression(c, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// exhaustiveCombine is the reference for combine: it builds every
// |ls|·|rs| pair, sorts them with sort.Slice and keeps the
// non-dominated ones with prune's tolerance and subsampling.
func exhaustiveCombine(op Gene, ls, rs []shape) []shape {
	ss := make([]shape, 0, len(ls)*len(rs))
	for li, l := range ls {
		for ri, r := range rs {
			ss = append(ss, pairShape(op, l, r, li, ri))
		}
	}
	if len(ss) <= 1 {
		return ss
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].w != ss[j].w {
			return ss[i].w < ss[j].w
		}
		return ss[i].h < ss[j].h
	})
	out := ss[:0]
	bestH := math.Inf(1)
	for _, s := range ss {
		if s.h < bestH-1e-15 {
			out = append(out, s)
			bestH = s.h
		}
	}
	if len(out) > maxCurve {
		sub := make([]shape, 0, maxCurve)
		for i := 0; i < maxCurve; i++ {
			sub = append(sub, out[i*(len(out)-1)/(maxCurve-1)])
		}
		out = sub
	}
	res := make([]shape, len(out))
	copy(res, out)
	return res
}

func pairShape(op Gene, l, r shape, li, ri int) shape {
	if op == OpV {
		return shape{w: l.w + r.w, h: math.Max(l.h, r.h), li: li, ri: ri}
	}
	return shape{w: math.Max(l.w, r.w), h: l.h + r.h, li: li, ri: ri}
}

// diffCombine compares combine with exhaustiveCombine. The reference's
// sort is unstable, so when two pairs give exactly the same (w, h) the
// pair it keeps is an accident of its pivots; unless strict, any pair
// of such a tie is accepted.
func diffCombine(op Gene, ls, rs []shape, strict bool) error {
	got, want := combine(nil, op, ls, rs), exhaustiveCombine(op, ls, rs)
	if len(got) != len(want) {
		return fmt.Errorf("op %d: %d shapes, reference has %d\n got %v\nwant %v", op, len(got), len(want), got, want)
	}
	for k, g := range got {
		w := want[k]
		if g == w {
			continue
		}
		if g.w == w.w && g.h == w.h && !strict && pairShape(op, ls[g.li], rs[g.ri], g.li, g.ri) == g {
			ties := 0
			for li, l := range ls {
				for ri, r := range rs {
					if s := pairShape(op, l, r, li, ri); s.w == w.w && s.h == w.h {
						ties++
					}
				}
			}
			if ties > 1 {
				continue
			}
		}
		return fmt.Errorf("op %d: shape %d is %+v, reference has %+v", op, k, g, w)
	}
	return nil
}

// staircase returns n shapes in pruned order (w ascending, h
// descending) around 1 mm, the consecutive heights hStep apart, or
// random when hStep is 0.
func staircase(rng *rand.Rand, n int, hStep float64) []shape {
	ss := make([]shape, n)
	w, h := 1e-4*(1+rng.Float64()), 2e-3*(1+rng.Float64())
	for k := range ss {
		ss[k] = shape{w: w, h: h}
		w += 1e-4 * (0.01 + rng.Float64())
		if hStep > 0 {
			h -= hStep
		} else {
			h *= 0.5 + 0.49*rng.Float64()
		}
	}
	return ss
}

func reversed(ss []shape) []shape {
	out := slices.Clone(ss)
	slices.Reverse(out)
	return out
}

// The Stockmeyer combine must return exactly what the exhaustive
// product plus prune returned, indices included: on both cuts, on
// leaf-ordered (h ascending) and pruned-ordered (w ascending) lists, on
// real leaves and subtrees, on identical children, around the 1e-15
// dominance tolerance, and on fronts longer than maxCurve.
func TestCombineMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ops := []Gene{OpV, OpH}
	check := func(name string, ls, rs []shape) {
		t.Helper()
		for _, op := range ops {
			if err := diffCombine(op, ls, rs, true); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		a := staircase(rng, 1+rng.Intn(maxCurve), 0)
		b := staircase(rng, 1+rng.Intn(maxCurve), 0)
		check("random", a, b)
		check("random, left reversed", reversed(a), b)
		check("random, right reversed", a, reversed(b))
		check("random, both reversed", reversed(a), reversed(b))
		check("identical", a, a)
		check("identical reversed", reversed(a), reversed(a))
	}
	for _, step := range []float64{0.5e-15, 1e-15, 1.5e-15} {
		for trial := 0; trial < 50; trial++ {
			a := staircase(rng, 2+rng.Intn(maxCurve-1), step)
			b := staircase(rng, 2+rng.Intn(maxCurve-1), step)
			check(fmt.Sprintf("heights %g apart", step), a, b)
			check(fmt.Sprintf("heights %g apart, reversed", step), reversed(a), reversed(b))
		}
	}
	// Interleaved full-length staircases: each cut's exact front has
	// 2·maxCurve-1 shapes, so prune must subsample it.
	for trial := 0; trial < 50; trial++ {
		a, b := staircase(rng, maxCurve, 0), staircase(rng, maxCurve, 0)
		for k := range b {
			b[k].h = a[k].h * (1 - 1e-3)
		}
		check("longer than maxCurve", a, b)
		check("longer than maxCurve, reversed", reversed(a), b)
	}
	// Real trees: every internal node of a packed random expression
	// over flexible blocks of random sizes, its leaves straight from
	// blockShapes, plus random cross products of the nodes' curves.
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		blocks := make([]Block, n)
		for i := range blocks {
			lo := 0.25 + rng.Float64()
			blocks[i] = Block{Name: fmt.Sprint(i), Area: 1e-6 * (0.2 + rng.Float64()), MinAspect: lo, MaxAspect: lo * (1 + 3*rng.Float64())}
		}
		if trial%4 == 0 {
			blocks[1] = blocks[0] // identical leaves
		}
		root, err := new(packer).tree(randomExpression(n, rng), leafShapes(blocks))
		if err != nil {
			t.Fatal(err)
		}
		var curves [][]shape
		var walk func(*node)
		walk = func(nd *node) {
			curves = append(curves, nd.shapes)
			if nd.op.IsOperator() {
				if err := diffCombine(nd.op, nd.left.shapes, nd.right.shapes, true); err != nil {
					t.Fatalf("tree node: %v", err)
				}
				walk(nd.left)
				walk(nd.right)
			}
		}
		walk(root)
		for k := 0; k < 10; k++ {
			check("tree curves", curves[rng.Intn(len(curves))], curves[rng.Intn(len(curves))])
		}
	}
}

// fuzzCurve decodes one child curve: the first byte picks real leaf
// shapes of a block (even) or a pruned staircase (odd), the rest are
// float64 values, rejected when not in (1e-100, 1e100).
func fuzzCurve(data []byte) []shape {
	if len(data) < 1 {
		return nil
	}
	var vals []float64
	for rest := data[1:]; len(rest) >= 8; rest = rest[8:] {
		v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(rest)))
		if !(v > 1e-100 && v < 1e100) {
			return nil
		}
		vals = append(vals, v)
	}
	if data[0]%2 == 0 {
		if len(vals) < 3 {
			return nil
		}
		b := Block{Name: "b", Area: vals[0], MinAspect: math.Min(vals[1], vals[2]), MaxAspect: math.Max(vals[1], vals[2])}
		if b.Validate() != nil || b.MaxAspect > 1e6*b.MinAspect {
			return nil
		}
		return blockShapes(b)
	}
	if len(vals) < 2 || len(vals) > 2*4*maxCurve {
		return nil
	}
	ss := make([]shape, 0, len(vals)/2)
	for k := 0; k+1 < len(vals); k += 2 {
		ss = append(ss, shape{w: vals[k], h: vals[k+1]})
	}
	ss = prune(ss)
	if data[0]%4 == 3 {
		ss = reversed(ss)
	}
	return ss
}

// FuzzCombine checks the Stockmeyer combine against the exhaustive
// reference on fuzzed leaf and pruned curves, under both cuts.
func FuzzCombine(f *testing.F) {
	enc := func(kind byte, vals ...float64) []byte {
		b := []byte{kind}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(true, enc(0, 1e-6, 0.5, 2), enc(0, 2e-6, 1, 3))
	f.Add(false, enc(0, 1e-6, 0.5, 2), enc(1, 1, 3, 2, 2, 3, 1))
	f.Add(true, enc(3, 1, 3, 2, 2, 3, 1), enc(1, 1, 1, 1, 1-0.5e-15, 2, 1-1.5e-15))
	f.Fuzz(func(t *testing.T, vertical bool, l, r []byte) {
		ls, rs := fuzzCurve(l), fuzzCurve(r)
		if ls == nil || rs == nil {
			return
		}
		op := OpH
		if vertical {
			op = OpV
		}
		if err := diffCombine(op, ls, rs, false); err != nil {
			t.Fatal(err)
		}
	})
}

// ballot accepts exactly the operand/operator swaps validExpression
// accepts, so mutateExpr keeps the same moves and RNG draws.
func TestBallotMatchesValidExpression(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		e := randomExpression(n, rng)
		for i := 0; i+1 < len(e); i++ {
			if e[i].IsOperator() == e[i+1].IsOperator() {
				continue
			}
			e[i], e[i+1] = e[i+1], e[i]
			if got, want := ballot(e), checkExpression(e, n) == nil; got != want {
				t.Fatalf("%v: ballot = %v, validExpression ok = %v", e, got, want)
			}
			e[i], e[i+1] = e[i+1], e[i]
		}
	}
}
