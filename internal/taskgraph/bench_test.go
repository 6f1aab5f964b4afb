package taskgraph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Each file under benchmarks/ parses, validates, and is byte for byte
// what Graph.Write prints for it, both read from disk and as Benchmark
// returns it from the embedded copy.
func TestBenchmarkFilesRoundTrip(t *testing.T) {
	for _, name := range BenchmarkNames() {
		want, err := os.ReadFile(filepath.Join("benchmarks", name+".tg"))
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ReadGraph(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := parsed.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		embedded, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*Graph{parsed, embedded} {
			var got bytes.Buffer
			if err := g.Write(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: Write differs from benchmarks/%s.tg", name, name)
			}
		}
	}
}

// Benchmark hands out a fresh graph on every call: editing one leaves
// the next call's graph as the file describes it.
func TestBenchmarkReturnsFreshGraph(t *testing.T) {
	g, err := Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	g.Name, g.Deadline = "edited", 1
	again, err := Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	if again == g || again.Name != "Bm1" || again.Deadline != 790 || again.NumTasks() != 19 {
		t.Errorf("Bm1 after editing an earlier copy: %s, deadline %g", again, again.Deadline)
	}
}

func TestBenchmarksMatchPaperSpecs(t *testing.T) {
	want := []struct {
		name     string
		tasks    int
		edges    int
		deadline float64
	}{
		{"Bm1", 19, 19, 790},
		{"Bm2", 35, 40, 1500},
		{"Bm3", 39, 43, 1650},
		{"Bm4", 51, 60, 2000},
	}
	graphs, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 4 {
		t.Fatalf("got %d benchmarks", len(graphs))
	}
	for i, w := range want {
		g := graphs[i]
		if g.Name != w.name || g.NumTasks() != w.tasks || g.NumEdges() != w.edges || g.Deadline != w.deadline {
			t.Errorf("%s = %d/%d/%g, want %d/%d/%g",
				g.Name, g.NumTasks(), g.NumEdges(), g.Deadline, w.tasks, w.edges, w.deadline)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.name, err)
		}
		// All task types must fit the shared type universe.
		for _, task := range g.Tasks() {
			if task.Type < 0 || task.Type >= NumTaskTypes {
				t.Errorf("%s task %d type %d outside [0,%d)", w.name, task.ID, task.Type, NumTaskTypes)
			}
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	g, err := Benchmark("Bm2")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 35 {
		t.Errorf("Bm2 tasks = %d", g.NumTasks())
	}
	if _, err := Benchmark("Bm9"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	names := BenchmarkNames()
	if len(names) != 4 || names[0] != "Bm1" {
		t.Errorf("BenchmarkNames = %v", names)
	}
}
