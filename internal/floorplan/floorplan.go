// Package floorplan provides the floorplanning substrate of the
// reproduction: block/floorplan types with HotSpot-style .flp
// serialization, a slicing-tree representation with Stockmeyer
// shape-curve sizing, a thermal-aware genetic algorithm floorplanner
// (after Hung et al., ISQED 2005, reference [3] of the paper), and a
// grid builder for the fixed platform architecture.
//
// The package is deliberately independent of the thermal model: thermal
// objectives enter through the Evaluator callback, which the co-synthesis
// layer wires to the HotSpot-style solver. This keeps the dependency
// arrow pointing one way (hotspot imports floorplan, never the reverse).
package floorplan

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"thermalsched/internal/geom"
)

// Block describes an unplaced rectangular module: a name, a required
// silicon area in m², and the range of aspect ratios (height/width) the
// module may assume.
type Block struct {
	Name      string
	Area      float64 // m²
	MinAspect float64 // minimum height/width, e.g. 0.5
	MaxAspect float64 // maximum height/width, e.g. 2.0
}

// Validate reports the first problem with the block definition.
func (b Block) Validate() error {
	switch {
	case b.Name == "":
		return fmt.Errorf("floorplan: block has empty name")
	case !(b.Area > 0) || math.IsInf(b.Area, 0):
		return fmt.Errorf("floorplan: block %q has invalid area %g", b.Name, b.Area)
	case !(b.MinAspect > 0) || b.MaxAspect < b.MinAspect:
		return fmt.Errorf("floorplan: block %q has invalid aspect range [%g, %g]",
			b.Name, b.MinAspect, b.MaxAspect)
	}
	return nil
}

// Placed is a named, positioned rectangle in a floorplan.
type Placed struct {
	Name string
	Rect geom.Rect
}

// Floorplan is a set of placed, named, non-overlapping blocks.
// The zero value is an empty floorplan ready for AddBlock.
type Floorplan struct {
	blocks []Placed
	index  map[string]int
}

// New returns an empty floorplan.
func New() *Floorplan {
	return &Floorplan{index: make(map[string]int)}
}

// AddBlock appends a placed block. It rejects duplicate names and
// degenerate rectangles but does not check overlap (use Validate once the
// plan is complete; packing algorithms add blocks in bulk).
func (f *Floorplan) AddBlock(name string, r geom.Rect) error {
	if name == "" {
		return fmt.Errorf("floorplan: empty block name")
	}
	if !r.Valid() {
		return fmt.Errorf("floorplan: block %q has invalid rect %v", name, r)
	}
	if f.index == nil {
		f.index = make(map[string]int)
	}
	if _, dup := f.index[name]; dup {
		return fmt.Errorf("floorplan: duplicate block name %q", name)
	}
	f.index[name] = len(f.blocks)
	f.blocks = append(f.blocks, Placed{Name: name, Rect: r})
	return nil
}

// NumBlocks returns the number of blocks.
func (f *Floorplan) NumBlocks() int { return len(f.blocks) }

// Blocks returns the placed blocks in insertion order. The returned slice
// is a copy; mutating it does not affect the floorplan.
func (f *Floorplan) Blocks() []Placed {
	out := make([]Placed, len(f.blocks))
	copy(out, f.blocks)
	return out
}

// Names returns the block names in insertion order.
func (f *Floorplan) Names() []string {
	out := make([]string, len(f.blocks))
	for i, b := range f.blocks {
		out[i] = b.Name
	}
	return out
}

// Rect returns the rectangle of the named block.
func (f *Floorplan) Rect(name string) (geom.Rect, bool) {
	i, ok := f.index[name]
	if !ok {
		return geom.Rect{}, false
	}
	return f.blocks[i].Rect, true
}

// Block returns the block at insertion index i.
func (f *Floorplan) Block(i int) Placed { return f.blocks[i] }

// Index returns the insertion index of the named block.
func (f *Floorplan) Index(name string) (int, bool) {
	i, ok := f.index[name]
	return i, ok
}

// BoundingBox returns the bounding box of all blocks: the zero Rect
// for an empty plan, otherwise the blocks' rectangles folded through
// geom.Union in insertion order.
func (f *Floorplan) BoundingBox() geom.Rect {
	if len(f.blocks) == 0 {
		return geom.Rect{}
	}
	bb := f.blocks[0].Rect
	for _, b := range f.blocks[1:] {
		bb = geom.Union(bb, b.Rect)
	}
	return bb
}

// Area returns the bounding-box area, the usual packing objective.
func (f *Floorplan) Area() float64 { return f.BoundingBox().Area() }

// BlockArea returns the sum of the block areas (the lower bound on Area).
func (f *Floorplan) BlockArea() float64 {
	var s float64
	for _, b := range f.blocks {
		s += b.Rect.Area()
	}
	return s
}

// Deadspace returns the fraction of the bounding box not covered by
// blocks, in [0, 1).
func (f *Floorplan) Deadspace() float64 {
	a := f.Area()
	if a == 0 {
		return 0
	}
	return 1 - f.BlockArea()/a
}

// Validate checks that the floorplan has at least one block, no duplicate
// or invalid rectangles, and no overlapping pair. It reports the first
// invalid block in insertion order, then the first overlapping pair in
// (i, j) order, and allocates only its error.
func (f *Floorplan) Validate() error {
	if len(f.blocks) == 0 {
		return fmt.Errorf("floorplan: empty")
	}
	for _, b := range f.blocks {
		if !b.Rect.Valid() {
			return fmt.Errorf("floorplan: block %q has invalid rect %v", b.Name, b.Rect)
		}
	}
	for i, a := range f.blocks {
		for _, b := range f.blocks[i+1:] {
			if a.Rect.Overlaps(b.Rect) {
				return fmt.Errorf("floorplan: blocks %q and %q overlap", a.Name, b.Name)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (f *Floorplan) Clone() *Floorplan {
	c := New()
	for _, b := range f.blocks {
		// AddBlock cannot fail: the source plan already passed those checks.
		if err := c.AddBlock(b.Name, b.Rect); err != nil {
			panic("floorplan: Clone: " + err.Error())
		}
	}
	return c
}

// Write serializes the floorplan in HotSpot .flp format:
//
//	<name> <width> <height> <left-x> <bottom-y>
//
// one block per line, '#' comments, all units metres.
func (f *Floorplan) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# floorplan: %d blocks, bbox %.6g x %.6g m\n",
		len(f.blocks), f.BoundingBox().W, f.BoundingBox().H)
	fmt.Fprintf(bw, "# <name> <width> <height> <left-x> <bottom-y>\n")
	for _, b := range f.blocks {
		fmt.Fprintf(bw, "%s\t%.9g\t%.9g\t%.9g\t%.9g\n",
			b.Name, b.Rect.W, b.Rect.H, b.Rect.X, b.Rect.Y)
	}
	return bw.Flush()
}

// Read parses a floorplan in HotSpot .flp format (see Write).
func Read(r io.Reader) (*Floorplan, error) {
	f := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, fmt.Errorf("floorplan: line %d: want 5 fields, got %d", lineNo, len(fields))
		}
		vals := make([]float64, 4)
		for i, s := range fields[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("floorplan: line %d: bad number %q: %w", lineNo, s, err)
			}
			vals[i] = v
		}
		if err := f.AddBlock(fields[0], geom.NewRect(vals[2], vals[3], vals[0], vals[1])); err != nil {
			return nil, fmt.Errorf("floorplan: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("floorplan: read: %w", err)
	}
	if len(f.blocks) == 0 {
		return nil, fmt.Errorf("floorplan: no blocks in input")
	}
	return f, nil
}

// String renders a short human-readable summary.
func (f *Floorplan) String() string {
	var b strings.Builder
	bb := f.BoundingBox()
	fmt.Fprintf(&b, "Floorplan{%d blocks, %.3g x %.3g mm, deadspace %.1f%%}",
		len(f.blocks), bb.W*1e3, bb.H*1e3, 100*f.Deadspace())
	return b.String()
}

// Abutment is one pair of abutting blocks: their insertion indices,
// I < J, and the length of the edge they share.
type Abutment struct {
	I, J int
	Edge float64
}

// Adjacency appends one Abutment per pair of abutting blocks to dst, in
// increasing (I, J) order, and returns the extended slice. The thermal
// network builder consumes this.
func (f *Floorplan) Adjacency(dst []Abutment, tol float64) []Abutment {
	for i := 0; i < len(f.blocks); i++ {
		for j := i + 1; j < len(f.blocks); j++ {
			l, _ := geom.SharedEdge(f.blocks[i].Rect, f.blocks[j].Rect, tol)
			if l > 0 {
				dst = append(dst, Abutment{I: i, J: j, Edge: l})
			}
		}
	}
	return dst
}
