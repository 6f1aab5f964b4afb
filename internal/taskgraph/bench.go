package taskgraph

import (
	"bytes"
	"embed"
	"fmt"
	"slices"
)

// The paper evaluates four synthetic benchmarks described only as
// name/tasks/edges/deadline (Bm1/19/19/790, Bm2/35/40/1500,
// Bm3/39/43/1650, Bm4/51/60/2000). The graphs themselves were never
// published, so benchmarks/<name>.tg holds one fixed draw of each: a
// TGFF-style layered DAG with exact task and edge counts, one source,
// task types uniform over NumTaskTypes and edge volumes uniform in
// [1, 40], drawn with seeds 190700, 354015, 394316 and 516020 by the
// seeded generator this package used to carry. Each file is exactly
// what Graph.Write prints for the graph, so a Write of Benchmark(name)
// reproduces it byte for byte.
//
//go:embed benchmarks/*.tg
var benchFiles embed.FS

// NumTaskTypes is the size of the benchmarks' task type universe: every
// benchmark task's Type lies in [0, NumTaskTypes), and the technology
// library must cover all of them (techlib.StandardLibrary does).
const NumTaskTypes = 8

var benchNames = []string{"Bm1", "Bm2", "Bm3", "Bm4"}

// Benchmarks returns the paper's four benchmark graphs in order.
func Benchmarks() ([]*Graph, error) {
	out := make([]*Graph, 0, len(benchNames))
	for _, name := range benchNames {
		g, err := Benchmark(name)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// Benchmark returns one paper benchmark by name ("Bm1" … "Bm4"), parsed
// afresh on each call.
func Benchmark(name string) (*Graph, error) {
	if !slices.Contains(benchNames, name) {
		return nil, fmt.Errorf("taskgraph: unknown benchmark %q (want Bm1..Bm4)", name)
	}
	data, err := benchFiles.ReadFile("benchmarks/" + name + ".tg")
	if err != nil {
		return nil, fmt.Errorf("taskgraph: reading %s: %w", name, err)
	}
	g, err := ReadGraph(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("taskgraph: reading %s: %w", name, err)
	}
	return g, nil
}

// BenchmarkNames lists the available paper benchmarks in order.
func BenchmarkNames() []string { return slices.Clone(benchNames) }
