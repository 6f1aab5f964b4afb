// Command taskgen emits one of the paper's benchmark graphs in the
// repository's .tg format or Graphviz DOT. Random task graphs come from
// the scenario generator: a thermsched request of flow "generate".
//
// Usage:
//
//	taskgen -benchmark Bm1 -o bm1.tg
//	taskgen -benchmark Bm2 -dot bm2.dot -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"thermalsched/internal/taskgraph"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "", "paper benchmark to emit (Bm1..Bm4)")
		out       = flag.String("o", "", "output .tg file (default stdout)")
		dot       = flag.String("dot", "", "also write Graphviz DOT to this file")
		stats     = flag.Bool("stats", false, "print graph statistics to stderr")
	)
	flag.Parse()

	g, err := taskgraph.Benchmark(*benchmark)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := g.Write(w); err != nil {
		fatal(err)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fatal(err)
		}
		if err := g.WriteDOT(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *stats {
		depth := 0
		for _, l := range g.Levels() {
			if l > depth {
				depth = l
			}
		}
		fmt.Fprintf(os.Stderr, "%s: %d tasks, %d edges, depth %d, %d sources, %d sinks, deadline %g\n",
			g.Name, g.NumTasks(), g.NumEdges(), depth, len(g.Sources()), len(g.Sinks()), g.Deadline)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taskgen:", err)
	os.Exit(1)
}
