package taskgraph

import "fmt"

// The paper evaluates four synthetic benchmarks described as
// name/tasks/edges/deadline. The graphs themselves were never published,
// so we regenerate them with fixed seeds. The task type universe is
// shared with techlib.StandardTypes.

// NumTaskTypes is the number of distinct task types the benchmark
// generator draws from; the technology library must cover all of them.
const NumTaskTypes = 8

// benchSpec pins down one paper benchmark.
type benchSpec struct {
	name     string
	tasks    int
	edges    int
	deadline float64
	seed     int64
}

var benchSpecs = []benchSpec{
	{"Bm1", 19, 19, 790, 190_700},
	{"Bm2", 35, 40, 1500, 354_015},
	{"Bm3", 39, 43, 1650, 394_316},
	{"Bm4", 51, 60, 2000, 516_020},
}

// Benchmarks returns the paper's four benchmark graphs
// (Bm1/19/19/790, Bm2/35/40/1500, Bm3/39/43/1650, Bm4/51/60/2000).
func Benchmarks() ([]*Graph, error) {
	out := make([]*Graph, 0, len(benchSpecs))
	for _, s := range benchSpecs {
		g, err := Benchmark(s.name)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// Benchmark returns one paper benchmark by name ("Bm1" … "Bm4").
func Benchmark(name string) (*Graph, error) {
	for _, s := range benchSpecs {
		if s.name != name {
			continue
		}
		g, err := Generate(GenParams{
			Name:     s.name,
			Tasks:    s.tasks,
			Edges:    s.edges,
			Deadline: s.deadline,
			Types:    NumTaskTypes,
			Sources:  1,
			MaxData:  40,
			Seed:     s.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("taskgraph: building %s: %w", s.name, err)
		}
		return g, nil
	}
	return nil, fmt.Errorf("taskgraph: unknown benchmark %q (want Bm1..Bm4)", name)
}

// BenchmarkNames lists the available paper benchmarks in order.
func BenchmarkNames() []string {
	out := make([]string, len(benchSpecs))
	for i, s := range benchSpecs {
		out[i] = s.name
	}
	return out
}
