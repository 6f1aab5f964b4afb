package taskgraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Write serializes the graph in the repository's .tg text format:
//
//	graph <name>
//	deadline <float>
//	task <id> <name> <type>
//	edge <from> <to> <data>
//
// '#' starts a comment. The format is line-oriented and diff-friendly.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# task graph: %d tasks, %d edges\n", g.NumTasks(), g.NumEdges())
	fmt.Fprintf(bw, "graph %s\n", g.Name)
	fmt.Fprintf(bw, "deadline %g\n", g.Deadline)
	for _, t := range g.tasks {
		fmt.Fprintf(bw, "task %d %s %d\n", t.ID, t.Name, t.Type)
	}
	for _, e := range g.Edges() {
		if e.IsConditional() {
			fmt.Fprintf(bw, "edge %d %d %g %g\n", e.From, e.To, e.Data, e.Prob)
		} else {
			fmt.Fprintf(bw, "edge %d %d %g\n", e.From, e.To, e.Data)
		}
	}
	return bw.Flush()
}

// ReadGraph parses a .tg stream (see Write).
func ReadGraph(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	b := NewBuilder("", 0) // graph and deadline directives may come in any order
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		bad := func(msg string) error {
			return fmt.Errorf("taskgraph: line %d: %s: %q", lineNo, msg, line)
		}
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, bad("graph wants 1 argument")
			}
			b.name = fields[1]
		case "deadline":
			if len(fields) != 2 {
				return nil, bad("deadline wants 1 argument")
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, bad("bad deadline")
			}
			b.deadline = v
		case "task":
			if len(fields) != 4 {
				return nil, bad("task wants 3 arguments")
			}
			id, err1 := strconv.Atoi(fields[1])
			typ, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return nil, bad("bad task numbers")
			}
			if err := b.AddTask(Task{ID: id, Name: fields[2], Type: typ}); err != nil {
				return nil, fmt.Errorf("taskgraph: line %d: %w", lineNo, err)
			}
		case "edge":
			if len(fields) != 4 && len(fields) != 5 {
				return nil, bad("edge wants 3 or 4 arguments")
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			data, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, bad("bad edge numbers")
			}
			prob := 0.0
			if len(fields) == 5 {
				p, err := strconv.ParseFloat(fields[4], 64)
				if err != nil {
					return nil, bad("bad edge probability")
				}
				prob = p
			}
			if err := b.AddEdge(Edge{From: from, To: to, Data: data, Prob: prob}); err != nil {
				return nil, fmt.Errorf("taskgraph: line %d: %w", lineNo, err)
			}
		default:
			return nil, bad("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("taskgraph: read: %w", err)
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("taskgraph: empty input")
	}
	return b.Build()
}

// WriteDOT emits the graph in Graphviz DOT syntax for visualization.
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", g.Name)
	fmt.Fprintf(bw, "  rankdir=TB;\n  node [shape=box];\n")
	for _, t := range g.tasks {
		fmt.Fprintf(bw, "  %d [label=\"%s\\ntype %d\"];\n", t.ID, t.Name, t.Type)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "  %d -> %d [label=\"%g\"];\n", e.From, e.To, e.Data)
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}
