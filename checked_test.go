package thermalsched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"slices"
	"strings"
	"testing"
)

// checkedResponseBytes runs c and returns the response JSON with the
// wall-clock stamp zeroed.
func checkedResponseBytes(t *testing.T, e *Engine, c *Checked) []byte {
	t.Helper()
	resp, err := e.RunChecked(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	resp.ElapsedMS = 0
	blob, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// A checked value shares no mutable memory with the caller's request:
// editing the inline graph, CandidateTypes and the pointer knobs after
// Check moves neither its fingerprint nor its response.
func TestCheckedOwnsItsMemory(t *testing.T) {
	e := testEngine(t)
	w, seed := 5.0, int64(3)
	req := Request{
		Flow: FlowCoSynthesis,
		Graph: &GraphSpec{Name: "own", Deadline: 400,
			Tasks: []TaskSpec{{ID: 0, Name: "a", Type: 1}, {ID: 1, Name: "b", Type: 2}, {ID: 2, Name: "c", Type: 3}},
			Edges: []EdgeSpec{{From: 0, To: 1, Data: 4}, {From: 0, To: 2, Data: 2}}},
		TempWeight:           &w,
		Seed:                 &seed,
		CandidateTypes:       []string{"pe-med", "pe-fast"},
		MaxPEs:               3,
		FloorplanGenerations: 2,
	}
	pristine := req.Fingerprint()
	c, err := e.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Fingerprint(); got != pristine {
		t.Fatalf("Checked fingerprint %s, want the request's %s", got, pristine)
	}
	want := checkedResponseBytes(t, e, c)

	req.Graph.Tasks[1].Type = 5
	req.Graph.Tasks[2].Name = "renamed"
	req.Graph.Edges[0].Data = 90
	req.Graph.Deadline = 1
	req.CandidateTypes[0] = "pe-turbo"
	w, seed = 0.5, 9

	if got := c.Fingerprint(); got != pristine {
		t.Errorf("fingerprint moved from %s to %s after the caller edited its request", pristine, got)
	}
	if got := checkedResponseBytes(t, e, c); string(got) != string(want) {
		t.Errorf("response changed after the caller edited its request:\n  before %s\n  after  %s", want, got)
	}
}

// One checked value is safe to run from many goroutines at once: its
// built inline graph and canonical request are only read.
func TestCheckedSharedAcrossRuns(t *testing.T) {
	e, err := NewEngine(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Check(Request{Flow: FlowSimulate, Graph: GraphSpecOf(e.benches["Bm1"]),
		Simulate: &SimulateSpec{Replicas: 2, MinFactor: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	want := checkedResponseBytes(t, e, c)
	out, err := e.RunBatch(context.Background(), slices.Repeat([]*Checked{c}, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range out {
		if resp.Error != "" {
			t.Fatalf("run %d failed: %s", i, resp.Error)
		}
		resp.ElapsedMS = 0
		if got, _ := json.Marshal(resp); string(got) != string(want) {
			t.Errorf("run %d of the shared checked value answered differently", i)
		}
	}
}

// A request is canonicalized in exactly two places: the shared check
// behind Engine.Check and Request.Validate, and Request.Fingerprint.
// Every runner takes the checked value instead of canonicalizing again.
func TestCanonicalHasTwoCallers(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var callers []string
	for _, f := range pkgs["thermalsched"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "canonical" {
						callers = append(callers, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	slices.Sort(callers)
	if want := []string{"Fingerprint", "check"}; !slices.Equal(callers, want) {
		t.Errorf("canonical() is called from %v, want only %v", callers, want)
	}
}

// A zero Checked, made without Check, is refused rather than run.
func TestRunCheckedRefusesUncheckedValue(t *testing.T) {
	if _, err := testEngine(t).RunChecked(context.Background(), &Checked{}); err == nil {
		t.Fatal("RunChecked ran a value Check never made")
	}
}

// fuzzGraph decodes a small inline graph: the first byte sizes it (at
// most 8 tasks), then each task reads two bytes (ID, name and type) and
// each edge four (endpoints, data, probability). The byte-to-value
// tables reach every builder fault: out-of-order and negative IDs and
// types, an empty name, missing endpoints, self loops, duplicate edges,
// cycles, and negative, NaN, infinite and extreme data and
// probabilities.
func fuzzGraph(data []byte, deadline float64) *GraphSpec {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	g := &GraphSpec{Name: "fz", Deadline: deadline}
	for i := range next() % 9 {
		id, kind := next(), next()
		t := TaskSpec{ID: i, Name: fmt.Sprintf("t%d", i), Type: kind%10 - 1}
		if id >= 240 {
			t.ID = id - 245
		}
		if kind >= 250 {
			t.Name = ""
		}
		g.Tasks = append(g.Tasks, t)
	}
	dataOf := []float64{0, math.MaxFloat64, -1, math.NaN(), math.Inf(1), 5e-324}
	for len(data) >= 4 {
		e := EdgeSpec{From: next()%10 - 1, To: next()%10 - 1}
		if d := next(); d < len(dataOf) {
			e.Data = dataOf[d]
		} else {
			e.Data = float64(d) * 3
		}
		switch p := next(); {
		case p == 255:
			e.Prob = math.NaN()
		case p >= 200:
			e.Prob = float64(p-200) / 50 // up to 1.1
		default:
			e.Prob = float64(p) / 200
		}
		g.Edges = append(g.Edges, e)
	}
	return g
}

// FuzzCheckedGraph: a small inline graph on a platform request is
// either rejected by Check with a FieldError naming a graph field, or
// runs. No graph Check accepts fails in the flow.
func FuzzCheckedGraph(f *testing.F) {
	f.Add([]byte{3, 0, 2, 0, 3, 0, 4, 1, 2, 9, 0, 1, 3, 6, 40}, 800.0) // a valid 3-task fork
	f.Add([]byte{2, 0, 2, 0, 3, 1, 2, 9, 0, 2, 1, 9, 0}, 100.0)        // a 2-task cycle
	f.Add([]byte{1, 0, 250}, 100.0)                                    // an empty name
	f.Add([]byte{1, 0, 9}, 100.0)                                      // a type no PE type runs
	f.Add([]byte{0}, 100.0)                                            // no tasks
	f.Add([]byte{2, 0, 2, 0, 3, 1, 2, 1, 0}, -1.0)                     // a negative deadline
	f.Add([]byte{3, 0, 2, 0, 3, 0, 4, 1, 2, 1, 7, 2, 3, 1, 199}, 1e-300)
	e, err := NewEngine(WithWorkers(1), WithSearchParallelism(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, deadline float64) {
		c, err := e.Check(Request{Flow: FlowPlatform, Graph: fuzzGraph(data, deadline)})
		if err != nil {
			var fe *FieldError
			if !errors.As(err, &fe) || !strings.HasPrefix(fe.Field, "graph") {
				t.Fatalf("Check rejected the graph with %v, want a FieldError on a graph field", err)
			}
			return
		}
		if _, err := e.RunChecked(context.Background(), c); err != nil {
			t.Fatalf("a graph Check accepted failed to run: %v", err)
		}
	})
}
