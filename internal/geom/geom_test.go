package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(1, 2, 3, 4)
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Center(); got != (Point{2.5, 4}) {
		t.Errorf("Center = %v, want {2.5 4}", got)
	}
	if got := r.MaxX(); got != 4 {
		t.Errorf("MaxX = %v, want 4", got)
	}
	if got := r.MaxY(); got != 6 {
		t.Errorf("MaxY = %v, want 6", got)
	}
}

func TestRectValid(t *testing.T) {
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"positive", NewRect(0, 0, 1, 1), true},
		{"zero width", NewRect(0, 0, 0, 1), false},
		{"zero height", NewRect(0, 0, 1, 0), false},
		{"negative width", NewRect(0, 0, -1, 1), false},
		{"nan", Rect{X: math.NaN(), W: 1, H: 1}, false},
		{"inf", Rect{W: math.Inf(1), H: 1}, false},
		{"negative origin ok", NewRect(-5, -5, 2, 2), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.Valid(); got != tc.want {
				t.Errorf("Valid(%v) = %v, want %v", tc.r, got, tc.want)
			}
		})
	}
}

func TestPointOps(t *testing.T) {
	p, q := Point{1, 2}, Point{4, 6}
	if got := p.Add(q); got != (Point{5, 8}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{3, 4}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestContains(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	for _, p := range []Point{{1, 1}, {0, 0}, {2, 2}, {0, 2}} {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range []Point{{-1, 1}, {3, 1}, {1, -0.5}, {1, 2.5}} {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestOverlapArea(t *testing.T) {
	tests := []struct {
		name string
		r, s Rect
		want float64
	}{
		{"identical", NewRect(0, 0, 2, 2), NewRect(0, 0, 2, 2), 4},
		{"half", NewRect(0, 0, 2, 2), NewRect(1, 0, 2, 2), 2},
		{"corner", NewRect(0, 0, 2, 2), NewRect(1, 1, 2, 2), 1},
		{"touching edge", NewRect(0, 0, 2, 2), NewRect(2, 0, 2, 2), 0},
		{"disjoint", NewRect(0, 0, 1, 1), NewRect(5, 5, 1, 1), 0},
		{"contained", NewRect(0, 0, 4, 4), NewRect(1, 1, 2, 2), 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := OverlapArea(tc.r, tc.s); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("OverlapArea = %v, want %v", got, tc.want)
			}
			// Symmetry.
			if got := OverlapArea(tc.s, tc.r); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("OverlapArea (swapped) = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestOverlapsEdgeTouchDoesNotCount(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	s := NewRect(1, 0, 1, 1)
	if r.Overlaps(s) {
		t.Error("edge-touching rectangles must not be reported as overlapping")
	}
}

func TestUnion(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	s := NewRect(2, 3, 1, 1)
	u := Union(r, s)
	want := NewRect(0, 0, 3, 4)
	if u != want {
		t.Errorf("Union = %v, want %v", u, want)
	}
	u = Union(u, NewRect(-1, 0, 0.5, 0.5))
	if u.X != -1 || u.MaxX() != 3 || u.MaxY() != 4 {
		t.Errorf("Union of three = %v", u)
	}
}

func TestSharedEdge(t *testing.T) {
	tests := []struct {
		name     string
		r, s     Rect
		wantLen  float64
		wantAxis Axis
	}{
		{"side by side full", NewRect(0, 0, 1, 2), NewRect(1, 0, 1, 2), 2, Vertical},
		{"side by side partial", NewRect(0, 0, 1, 2), NewRect(1, 1, 1, 2), 1, Vertical},
		{"stacked", NewRect(0, 0, 3, 1), NewRect(0, 1, 3, 1), 3, Horizontal},
		{"stacked partial", NewRect(0, 0, 3, 1), NewRect(2, 1, 3, 1), 1, Horizontal},
		{"corner touch only", NewRect(0, 0, 1, 1), NewRect(1, 1, 1, 1), 0, None},
		{"disjoint", NewRect(0, 0, 1, 1), NewRect(4, 4, 1, 1), 0, None},
		{"overlapping", NewRect(0, 0, 2, 2), NewRect(1, 0, 2, 2), 0, None},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			gotLen, gotAxis := SharedEdge(tc.r, tc.s, Eps)
			if math.Abs(gotLen-tc.wantLen) > 1e-9 || gotAxis != tc.wantAxis {
				t.Errorf("SharedEdge = (%v, %v), want (%v, %v)",
					gotLen, gotAxis, tc.wantLen, tc.wantAxis)
			}
			// Symmetry.
			revLen, revAxis := SharedEdge(tc.s, tc.r, Eps)
			if math.Abs(revLen-gotLen) > 1e-9 || revAxis != gotAxis {
				t.Errorf("SharedEdge not symmetric: (%v,%v) vs (%v,%v)",
					gotLen, gotAxis, revLen, revAxis)
			}
		})
	}
}

func TestAxisString(t *testing.T) {
	if None.String() != "none" || Horizontal.String() != "horizontal" || Vertical.String() != "vertical" {
		t.Error("Axis.String mismatch")
	}
}

// Property: overlap area is symmetric, bounded by each rect's area, and
// a rectangle always fully overlaps itself.
func TestOverlapAreaProperties(t *testing.T) {
	gen := func(r *rand.Rand) Rect {
		return NewRect(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*5+0.01, r.Float64()*5+0.01)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, s := gen(rng), gen(rng)
		ov := OverlapArea(r, s)
		if ov < 0 || ov > r.Area()+1e-9 || ov > s.Area()+1e-9 {
			return false
		}
		if math.Abs(ov-OverlapArea(s, r)) > 1e-12 {
			return false
		}
		return math.Abs(OverlapArea(r, r)-r.Area()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the union of two rects contains both and has area at least
// the max of the two.
func TestUnionProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRect(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*5+0.01, rng.Float64()*5+0.01)
		s := NewRect(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*5+0.01, rng.Float64()*5+0.01)
		u := Union(r, s)
		if u.Area() < r.Area()-1e-9 || u.Area() < s.Area()-1e-9 {
			return false
		}
		return u.Contains(r.Center()) && u.Contains(s.Center()) &&
			u.Contains(Point{r.X, r.Y}) && u.Contains(Point{s.MaxX(), s.MaxY()})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
