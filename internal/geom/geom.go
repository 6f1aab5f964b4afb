// Package geom provides the small amount of 2-D geometry the floorplanner
// and the thermal model need: axis-aligned rectangles, overlap tests,
// adjacency detection and shared-edge measurement.
//
// All coordinates are in metres unless a caller documents otherwise; the
// package itself is unit-agnostic.
package geom

import (
	"fmt"
	"math"
)

// Eps is the default tolerance used by the approximate predicates in this
// package. Floorplan coordinates come out of floating-point packing
// arithmetic, so exact comparison would spuriously miss adjacencies.
const Eps = 1e-9

// Point is a 2-D point.
type Point struct {
	X, Y float64
}

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is an axis-aligned rectangle identified by its lower-left corner
// (X, Y) and its extent (W, H). A Rect with non-positive W or H is
// degenerate; Valid reports whether a Rect is usable.
type Rect struct {
	X, Y float64 // lower-left corner
	W, H float64 // width (x-extent) and height (y-extent)
}

// NewRect constructs a rectangle from a lower-left corner and extents.
func NewRect(x, y, w, h float64) Rect { return Rect{X: x, Y: y, W: w, H: h} }

// Valid reports whether r has strictly positive area and finite fields.
func (r Rect) Valid() bool {
	for _, v := range [...]float64{r.X, r.Y, r.W, r.H} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return r.W > 0 && r.H > 0
}

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W * r.H }

// Center returns the centre point of r.
func (r Rect) Center() Point { return Point{r.X + r.W/2, r.Y + r.H/2} }

// MaxX returns the x coordinate of the right edge.
func (r Rect) MaxX() float64 { return r.X + r.W }

// MaxY returns the y coordinate of the top edge.
func (r Rect) MaxY() float64 { return r.Y + r.H }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("Rect(%.6g,%.6g %.6gx%.6g)", r.X, r.Y, r.W, r.H)
}

// Contains reports whether the point p lies inside r (boundaries included,
// within Eps).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X-Eps && p.X <= r.MaxX()+Eps &&
		p.Y >= r.Y-Eps && p.Y <= r.MaxY()+Eps
}

// Overlaps reports whether r and s share interior area (touching edges do
// not count as overlap).
func (r Rect) Overlaps(s Rect) bool {
	return OverlapArea(r, s) > Eps
}

// OverlapArea returns the area of the intersection of r and s, or 0 if
// they do not intersect.
func OverlapArea(r, s Rect) float64 {
	w := math.Min(r.MaxX(), s.MaxX()) - math.Max(r.X, s.X)
	h := math.Min(r.MaxY(), s.MaxY()) - math.Max(r.Y, s.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Union returns the bounding box of r and s.
func Union(r, s Rect) Rect {
	x0 := math.Min(r.X, s.X)
	y0 := math.Min(r.Y, s.Y)
	x1 := math.Max(r.MaxX(), s.MaxX())
	y1 := math.Max(r.MaxY(), s.MaxY())
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// SharedEdge returns the length of the boundary segment shared by r and s
// and the axis it runs along. Two rectangles share an edge when they abut:
// one's right edge coincides with the other's left edge (a vertical shared
// edge, axis = Vertical) or one's top edge coincides with the other's
// bottom edge (horizontal, axis = Horizontal). Overlapping or separated
// rectangles share no edge. The tolerance tol is used for the coincidence
// test; pass geom.Eps when unsure.
func SharedEdge(r, s Rect, tol float64) (length float64, axis Axis) {
	// Vertical adjacency: r right touches s left, or s right touches r left.
	if math.Abs(r.MaxX()-s.X) <= tol || math.Abs(s.MaxX()-r.X) <= tol {
		lo := math.Max(r.Y, s.Y)
		hi := math.Min(r.MaxY(), s.MaxY())
		if hi-lo > tol {
			return hi - lo, Vertical
		}
	}
	// Horizontal adjacency: r top touches s bottom, or vice versa.
	if math.Abs(r.MaxY()-s.Y) <= tol || math.Abs(s.MaxY()-r.Y) <= tol {
		lo := math.Max(r.X, s.X)
		hi := math.Min(r.MaxX(), s.MaxX())
		if hi-lo > tol {
			return hi - lo, Horizontal
		}
	}
	return 0, None
}

// Axis identifies the orientation of a shared edge.
type Axis int

// Axis values. None means the rectangles do not abut.
const (
	None Axis = iota
	Horizontal
	Vertical
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case Horizontal:
		return "horizontal"
	case Vertical:
		return "vertical"
	default:
		return "none"
	}
}
