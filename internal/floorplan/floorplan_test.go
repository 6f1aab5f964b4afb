package floorplan

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"thermalsched/internal/geom"
)

func TestBlockValidate(t *testing.T) {
	good := Block{Name: "pe0", Area: 1e-6, MinAspect: 0.5, MaxAspect: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid block rejected: %v", err)
	}
	bad := []Block{
		{Name: "", Area: 1, MinAspect: 1, MaxAspect: 1},
		{Name: "x", Area: 0, MinAspect: 1, MaxAspect: 1},
		{Name: "x", Area: -1, MinAspect: 1, MaxAspect: 1},
		{Name: "x", Area: math.Inf(1), MinAspect: 1, MaxAspect: 1},
		{Name: "x", Area: 1, MinAspect: 0, MaxAspect: 1},
		{Name: "x", Area: 1, MinAspect: 2, MaxAspect: 1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad block %d accepted: %+v", i, b)
		}
	}
}

func TestAddBlockAndAccessors(t *testing.T) {
	fp := New()
	if err := fp.AddBlock("a", geom.NewRect(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fp.AddBlock("b", geom.NewRect(1, 0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if fp.NumBlocks() != 2 {
		t.Errorf("NumBlocks = %d", fp.NumBlocks())
	}
	if got := fp.Names(); got[0] != "a" || got[1] != "b" {
		t.Errorf("Names = %v", got)
	}
	r, ok := fp.Rect("b")
	if !ok || r.W != 2 {
		t.Errorf("Rect(b) = %v, %v", r, ok)
	}
	if _, ok := fp.Rect("zz"); ok {
		t.Error("Rect of missing block should report !ok")
	}
	// Error cases.
	if err := fp.AddBlock("a", geom.NewRect(5, 5, 1, 1)); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := fp.AddBlock("", geom.NewRect(5, 5, 1, 1)); err == nil {
		t.Error("empty name accepted")
	}
	if err := fp.AddBlock("c", geom.NewRect(0, 0, -1, 1)); err == nil {
		t.Error("invalid rect accepted")
	}
}

func TestZeroValueFloorplanUsable(t *testing.T) {
	var fp Floorplan
	if err := fp.AddBlock("a", geom.NewRect(0, 0, 1, 1)); err != nil {
		t.Fatalf("zero-value floorplan should accept blocks: %v", err)
	}
}

func TestAreaDeadspaceBoundingBox(t *testing.T) {
	fp := New()
	mustAdd(t, fp, "a", geom.NewRect(0, 0, 1, 1))
	mustAdd(t, fp, "b", geom.NewRect(1, 0, 1, 2))
	bb := fp.BoundingBox()
	if bb.W != 2 || bb.H != 2 {
		t.Errorf("BoundingBox = %v", bb)
	}
	if got := New().BoundingBox(); got != (geom.Rect{}) {
		t.Errorf("empty BoundingBox = %v, want zero", got)
	}
	if fp.Area() != 4 {
		t.Errorf("Area = %v", fp.Area())
	}
	if fp.BlockArea() != 3 {
		t.Errorf("BlockArea = %v", fp.BlockArea())
	}
	if got := fp.Deadspace(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Deadspace = %v, want 0.25", got)
	}
}

func TestValidate(t *testing.T) {
	fp := New()
	if err := fp.Validate(); err == nil {
		t.Error("empty floorplan should fail Validate")
	}
	mustAdd(t, fp, "a", geom.NewRect(0, 0, 1, 1))
	mustAdd(t, fp, "b", geom.NewRect(2, 0, 1, 1))
	if err := fp.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	mustAdd(t, fp, "c", geom.NewRect(0.5, 0.5, 1, 1)) // overlaps a
	err := fp.Validate()
	if err == nil {
		t.Fatal("overlapping plan accepted")
	}
	if !strings.Contains(err.Error(), "overlap") {
		t.Errorf("error should mention overlap: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	fp := New()
	mustAdd(t, fp, "a", geom.NewRect(0, 0, 1, 1))
	c := fp.Clone()
	mustAdd(t, c, "b", geom.NewRect(2, 0, 1, 1))
	if fp.NumBlocks() != 1 || c.NumBlocks() != 2 {
		t.Error("Clone must be independent of the original")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fp := New()
	mustAdd(t, fp, "cpu0", geom.NewRect(0, 0, 0.004, 0.004))
	mustAdd(t, fp, "cpu1", geom.NewRect(0.004, 0, 0.004, 0.004))
	mustAdd(t, fp, "mem", geom.NewRect(0, 0.004, 0.008, 0.002))
	var buf bytes.Buffer
	if err := fp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBlocks() != 3 {
		t.Fatalf("round trip lost blocks: %d", got.NumBlocks())
	}
	for _, name := range fp.Names() {
		want, _ := fp.Rect(name)
		have, ok := got.Rect(name)
		if !ok {
			t.Fatalf("block %q missing after round trip", name)
		}
		if math.Abs(want.X-have.X) > 1e-12 || math.Abs(want.W-have.W) > 1e-12 {
			t.Errorf("block %q rect changed: %v vs %v", name, want, have)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"comment only", "# nothing\n"},
		{"bad field count", "a 1 2 3\n"},
		{"bad number", "a 1 2 3 x\n"},
		{"zero width", "a 0 1 0 0\n"},
		{"duplicate", "a 1 1 0 0\na 1 1 2 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.in)); err == nil {
				t.Errorf("Read(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestAdjacency(t *testing.T) {
	fp := New()
	mustAdd(t, fp, "a", geom.NewRect(0, 0, 1, 1))
	mustAdd(t, fp, "b", geom.NewRect(1, 0, 1, 1)) // abuts a
	mustAdd(t, fp, "c", geom.NewRect(5, 5, 1, 1)) // isolated
	mustAdd(t, fp, "d", geom.NewRect(0, 1, 2, 1)) // on top of a and b
	adj := fp.Adjacency(nil, geom.Eps)
	want := []Abutment{{0, 1, 1}, {0, 3, 1}, {1, 3, 1}}
	if len(adj) != len(want) {
		t.Fatalf("Adjacency = %v, want %v", adj, want)
	}
	for k, a := range adj {
		if a.I != want[k].I || a.J != want[k].J || math.Abs(a.Edge-want[k].Edge) > 1e-12 {
			t.Errorf("Adjacency[%d] = %v, want %v", k, a, want[k])
		}
	}
	// It appends to the caller's slice.
	if got := fp.Adjacency(adj[:1], geom.Eps); len(got) != 1+len(want) || got[1] != adj[0] {
		t.Errorf("Adjacency(dst) = %v, want dst then the pairs", got)
	}
}

func TestStringAndNames(t *testing.T) {
	fp := New()
	mustAdd(t, fp, "z", geom.NewRect(0, 0, 0.001, 0.001))
	mustAdd(t, fp, "a", geom.NewRect(0.001, 0, 0.001, 0.001))
	if s := fp.String(); !strings.Contains(s, "2 blocks") {
		t.Errorf("String = %q", s)
	}
	// Names keeps insertion order: block indices (Adjacency, the
	// thermal network) follow it.
	names := fp.Names()
	if names[0] != "z" || names[1] != "a" {
		t.Errorf("Names = %v", names)
	}
}

func mustAdd(t *testing.T, fp *Floorplan, name string, r geom.Rect) {
	t.Helper()
	if err := fp.AddBlock(name, r); err != nil {
		t.Fatal(err)
	}
}

func TestRowOfAndGridOfKeepBlocksCoupled(t *testing.T) {
	// Heterogeneous areas (a generated 0.6–2.0 speed spread): every
	// block must share a lateral edge with at least one neighbour, or
	// the thermal model degenerates to isolated blocks.
	names := []string{"pe0", "pe1", "pe2", "pe3", "pe4", "pe5"}
	areas := []float64{9.6e-6, 12e-6, 16e-6, 21e-6, 26e-6, 32e-6}
	for _, tc := range []struct {
		layout string
		build  func() (*Floorplan, error)
	}{
		{"row", func() (*Floorplan, error) { return RowOf(names, areas) }},
		{"grid", func() (*Floorplan, error) { return GridOf(names, areas) }},
	} {
		fp, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.layout, err)
		}
		if err := fp.Validate(); err != nil {
			t.Fatalf("%s: invalid floorplan: %v", tc.layout, err)
		}
		deg := make([]int, len(names))
		for _, a := range fp.Adjacency(nil, geom.Eps) {
			deg[a.I]++
			deg[a.J]++
		}
		for i, d := range deg {
			if d == 0 {
				t.Errorf("%s: block %s has no abutting neighbour (no lateral coupling)", tc.layout, names[i])
			}
		}
	}
}

func TestGridOfMatchesUniformGrid(t *testing.T) {
	// With uniform areas the packed grid must reproduce Grid's layout.
	area := 16e-6
	uniform, err := Grid("pe", 4, area)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := GridOf([]string{"pe0", "pe1", "pe2", "pe3"}, []float64{area, area, area, area})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range uniform.Blocks() {
		r, ok := packed.Rect(b.Name)
		if !ok || r != b.Rect {
			t.Errorf("block %s: packed %v, uniform %v", b.Name, r, b.Rect)
		}
	}
}

func TestRowGridOfErrors(t *testing.T) {
	if _, err := RowOf(nil, nil); err == nil {
		t.Error("empty RowOf succeeded")
	}
	if _, err := GridOf([]string{"a", "b"}, []float64{1}); err == nil {
		t.Error("mismatched GridOf lengths succeeded")
	}
	if _, err := RowOf([]string{"a"}, []float64{-1}); err == nil {
		t.Error("negative area succeeded")
	}
}
