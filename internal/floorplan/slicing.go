package floorplan

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"thermalsched/internal/geom"
)

// A slicing floorplan is encoded as a normalized Polish expression: a
// postfix sequence of operands (block indices) and the cut operators
// OpH / OpV. "ab|" places a and b side by side (vertical cut); "ab-"
// stacks b on top of a (horizontal cut). Sizing uses Stockmeyer shape
// curves: every subtree carries the set of non-dominated (w, h)
// realizations, merged bottom-up.

// Gene is one element of a Polish expression: a non-negative block index
// or one of the operator constants.
type Gene int

// Operator genes. Values ≥ 0 are block indices.
const (
	OpH Gene = -1 // horizontal cut: top/bottom stack, heights add
	OpV Gene = -2 // vertical cut: left/right, widths add
)

// IsOperator reports whether g is a cut operator.
func (g Gene) IsOperator() bool { return g == OpH || g == OpV }

// Expression is a Polish (postfix) expression over n blocks:
// n operand genes and n-1 operator genes obeying the ballot property
// (every prefix has more operands than operators).
type Expression []Gene

// ValidExpression checks that e is a structurally valid Polish expression
// over exactly n blocks, each appearing once.
func ValidExpression(e Expression, n int) error {
	return validExpression(e, n, make([]bool, n))
}

// validExpression is ValidExpression with the operand marks in seen
// (length n), which it overwrites.
func validExpression(e Expression, n int, seen []bool) error {
	if len(e) != 2*n-1 {
		return fmt.Errorf("floorplan: expression length %d, want %d for %d blocks", len(e), 2*n-1, n)
	}
	clear(seen)
	operands, operators := 0, 0
	for i, g := range e {
		if g.IsOperator() {
			operators++
			if operators >= operands {
				return fmt.Errorf("floorplan: ballot property violated at position %d", i)
			}
		} else {
			if int(g) < 0 || int(g) >= n {
				return fmt.Errorf("floorplan: operand %d out of range [0,%d)", int(g), n)
			}
			if seen[g] {
				return fmt.Errorf("floorplan: operand %d repeated", int(g))
			}
			seen[g] = true
			operands++
		}
	}
	if operands != n {
		return fmt.Errorf("floorplan: %d operands, want %d", operands, n)
	}
	return nil
}

// InitialExpression returns the canonical chain expression
// b0 b1 op b2 op ... alternating cut directions, a reasonable seed for
// search.
func InitialExpression(n int) Expression {
	if n == 1 {
		return Expression{0}
	}
	e := make(Expression, 0, 2*n-1)
	e = append(e, 0, 1)
	e = append(e, OpV)
	for i := 2; i < n; i++ {
		e = append(e, Gene(i))
		if i%2 == 0 {
			e = append(e, OpH)
		} else {
			e = append(e, OpV)
		}
	}
	return e
}

// shape is one feasible (w, h) realization of a subtree. For internal
// nodes, li/ri record the child shape indices that produced this
// realization; leaves leave them zero.
type shape struct {
	w, h   float64
	li, ri int // indices into the children's shape lists (internal nodes)
}

// shapesPerBlock controls how many discrete aspect ratios are sampled per
// block between MinAspect and MaxAspect.
const shapesPerBlock = 6

// maxCurve caps a subtree's shape-curve length; longer lists are pruned
// to the non-dominated subset and subsampled.
const maxCurve = 24

// blockShapes enumerates candidate (w, h) realizations for a block.
func blockShapes(b Block) []shape {
	k := shapesPerBlock
	if b.MaxAspect-b.MinAspect < 1e-12 {
		k = 1
	}
	out := make([]shape, 0, k)
	for i := 0; i < k; i++ {
		ar := b.MinAspect
		if k > 1 {
			ar = b.MinAspect + (b.MaxAspect-b.MinAspect)*float64(i)/float64(k-1)
		}
		h := math.Sqrt(b.Area * ar)
		w := b.Area / h
		out = append(out, shape{w: w, h: h})
	}
	return out
}

// leafShapes returns every block's shape curve, indexed by operand
// gene. The curves depend only on the blocks, so a search packing many
// expressions over one block set computes them once; packer.tree and
// combine only read them.
func leafShapes(blocks []Block) [][]shape {
	leaves := make([][]shape, len(blocks))
	for i, b := range blocks {
		leaves[i] = blockShapes(b)
	}
	return leaves
}

// prune keeps only non-dominated shapes (no other shape with both
// smaller-or-equal w and h) and caps the list length. It works in
// place and returns a prefix of ss with its capacity clipped, so
// appending to the result cannot overwrite the rest of ss.
func prune(ss []shape) []shape {
	if len(ss) <= 1 {
		return ss
	}
	slices.SortFunc(ss, func(a, b shape) int {
		if a.w != b.w {
			return cmp.Compare(a.w, b.w)
		}
		return cmp.Compare(a.h, b.h)
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
		// Subsample evenly, always keeping the extremes. Entry i reads
		// index i·(len-1)/(maxCurve-1) ≥ i, so the forward copy never
		// overwrites an entry it still has to read.
		for i := 0; i < maxCurve; i++ {
			out[i] = out[i*(len(out)-1)/(maxCurve-1)]
		}
		out = out[:maxCurve]
	}
	return out[:len(out):len(out)]
}

// node is a realized slicing-tree node.
type node struct {
	op          Gene // OpH, OpV, or operand (leaf)
	left, right *node
	shapes      []shape
}

// packer is the scratch of one packing at a time: the slicing tree's
// nodes, the combined shape curves and the operand marks, reused from
// pack to pack, and plan, the floorplan the GA scores each candidate
// in. A search draws one per scoring call from packers, so concurrent
// scorers never share one.
type packer struct {
	nodes  []node
	stack  []*node
	curves []shape
	seen   []bool
	plan   Floorplan
}

var packers = sync.Pool{New: func() any { return new(packer) }}

// tree parses the postfix expression into a tree and computes shape
// curves bottom-up. leaves[i] is the shape curve of operand gene i
// (leafShapes); leaf nodes share it. The tree and every internal
// node's curve live in p's scratch until its next call.
func (p *packer) tree(e Expression, leaves [][]shape) (*node, error) {
	n := len(leaves)
	p.seen = slices.Grow(p.seen[:0], n)[:n]
	if err := validExpression(e, n, p.seen); err != nil {
		return nil, err
	}
	// Sized up front, so &p.nodes[k] stays valid while the tree grows
	// and no combine outgrows the curve arena: children keep at most
	// maxCurve shapes, so each of the n-1 merges emits at most
	// 2·maxCurve-1 candidates and keeps fewer.
	p.nodes = slices.Grow(p.nodes[:0], len(e))
	p.stack = slices.Grow(p.stack[:0], n)
	p.curves = slices.Grow(p.curves[:0], (n-1)*(2*maxCurve-1))
	for _, g := range e {
		if !g.IsOperator() {
			p.nodes = append(p.nodes, node{op: g, shapes: leaves[g]})
			p.stack = append(p.stack, &p.nodes[len(p.nodes)-1])
			continue
		}
		r := p.stack[len(p.stack)-1]
		l := p.stack[len(p.stack)-2]
		base := len(p.curves)
		p.curves = combine(p.curves, g, l.shapes, r.shapes)
		p.nodes = append(p.nodes, node{op: g, left: l, right: r, shapes: p.curves[base:len(p.curves):len(p.curves)]})
		p.stack = append(p.stack[:len(p.stack)-2], &p.nodes[len(p.nodes)-1])
	}
	return p.stack[0], nil
}

// combine merges two children's shape curves under an operator,
// appending the merged curve to dst and returning the extended slice.
// Vertical cut: widths add, heights max. Horizontal cut: heights add,
// widths max.
//
// It is Stockmeyer's merge (Stockmeyer 1983). Both child lists are
// staircases, so a non-dominated pair is met by walking them from the
// narrow, tall end under a vertical cut, or from the wide, short end
// under a horizontal one. Each step emits the current pair and advances
// the binding child (the taller under V, the wider under H), or both on
// a tie; the walk ends when the binding child has no next shape. That
// is at most len(ls)+len(rs)-1 candidates instead of every pair, and
// prune applies the dominance tolerance and the length cap to them.
func combine(dst []shape, op Gene, ls, rs []shape) []shape {
	li, lstep, lend := walkOrder(op, ls)
	ri, rstep, rend := walkOrder(op, rs)
	base := len(dst)
	for {
		l, r := ls[li], rs[ri]
		s := shape{li: li, ri: ri}
		var lx, rx float64 // the extents the cut takes the max of
		if op == OpV {
			s.w, s.h = l.w+r.w, math.Max(l.h, r.h)
			lx, rx = l.h, r.h
		} else {
			s.w, s.h = math.Max(l.w, r.w), l.h+r.h
			lx, rx = l.w, r.w
		}
		dst = append(dst, s)
		advL, advR := !(lx < rx), !(rx < lx)
		if advL && li == lend || advR && ri == rend {
			return dst[:base+len(prune(dst[base:]))]
		}
		if advL {
			li += lstep
		}
		if advR {
			ri += rstep
		}
	}
}

// walkOrder returns where combine starts in ss, its step and its last
// index. Leaf lists from blockShapes run from short to tall; pruned
// lists run from narrow (tall) to wide (short). Both are walked in
// place, because a parent's li/ri index the stored list.
func walkOrder(op Gene, ss []shape) (first, step, last int) {
	tallFirst := ss[0].h > ss[len(ss)-1].h
	if tallFirst == (op == OpV) {
		return 0, 1, len(ss) - 1
	}
	return len(ss) - 1, -1, 0
}

// realize assigns concrete rectangles: the subtree rooted at n takes the
// region with lower-left (x, y) using its shape si, writing block
// positions into the floorplan under construction.
func realize(n *node, si int, x, y float64, blocks []Block, fp *Floorplan) error {
	s := n.shapes[si]
	if !n.op.IsOperator() {
		b := blocks[n.op]
		return fp.AddBlock(b.Name, geom.NewRect(x, y, s.w, s.h))
	}
	l := n.left.shapes[s.li]
	if n.op == OpV {
		if err := realize(n.left, s.li, x, y, blocks, fp); err != nil {
			return err
		}
		return realize(n.right, s.ri, x+l.w, y, blocks, fp)
	}
	if err := realize(n.left, s.li, x, y, blocks, fp); err != nil {
		return err
	}
	return realize(n.right, s.ri, x, y+l.h, blocks, fp)
}

// Pack converts a Polish expression into a concrete floorplan, choosing
// the root shape that minimizes bounding-box area. It returns the plan
// and its bounding-box area.
func Pack(e Expression, blocks []Block) (*Floorplan, float64, error) {
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			return nil, 0, err
		}
	}
	fp := New()
	area, err := new(packer).pack(e, blocks, leafShapes(blocks), fp)
	if err != nil {
		return nil, 0, err
	}
	return fp, area, nil
}

// pack is Pack over validated blocks whose shape curves leaves already
// holds (leafShapes), realized into fp, which it empties first. It
// returns the plan's bounding-box area.
func (p *packer) pack(e Expression, blocks []Block, leaves [][]shape, fp *Floorplan) (float64, error) {
	root, err := p.tree(e, leaves)
	if err != nil {
		return 0, err
	}
	best, bestArea := 0, math.Inf(1)
	for i, s := range root.shapes {
		if a := s.w * s.h; a < bestArea {
			best, bestArea = i, a
		}
	}
	fp.blocks = fp.blocks[:0]
	clear(fp.index)
	if err := realize(root, best, 0, 0, blocks, fp); err != nil {
		return 0, err
	}
	return bestArea, nil
}
