package thermalsched

import (
	"context"
	"fmt"
	"strings"
)

// PaperTables holds the paper's Tables 1–3 as Engine.PaperTables
// regenerates them; a table that was not asked for is nil.
type PaperTables struct {
	Table1 *Table1
	Table2 *VersusTable // power-aware vs thermal-aware co-synthesis
	Table3 *VersusTable // power-aware vs thermal-aware platform
}

// String renders the tables present in the paper's layout, each
// followed by a blank line: the output of cmd/tables.
func (t *PaperTables) String() string {
	var b strings.Builder
	if t.Table1 != nil {
		fmt.Fprintln(&b, t.Table1)
	}
	for _, v := range []*VersusTable{t.Table2, t.Table3} {
		if v != nil {
			fmt.Fprintln(&b, v)
		}
	}
	return b.String()
}

// PaperTables regenerates the paper's Tables 1–3 over the four paper
// benchmarks: table 1, 2 or 3, or all three for 0. The cells run as
// one RunBatch of platform and cosynthesis requests, so they share
// the engine's worker pool, search pool and model cache. Each (flow,
// benchmark, policy) cell is requested once, whichever tables show it,
// and only the selected tables' cells run: Table 3 alone runs no
// co-synthesis. floorplanGenerations sizes the GA floorplanner inside
// co-synthesis, as Request.FloorplanGenerations (cmd/tables uses 20).
func (e *Engine) PaperTables(ctx context.Context, table, floorplanGenerations int) (*PaperTables, error) {
	if table < 0 || table > 3 {
		return nil, fmt.Errorf("thermalsched: unknown table %d (want 1, 2 or 3)", table)
	}
	want := func(n int) bool { return table == 0 || table == n }
	heuristics := []Policy{Baseline, MinTaskPower, MinPEPower, MinTaskEnergy}
	versus := []Policy{MinTaskEnergy, ThermalAware}
	type column struct {
		flow     FlowKind
		policies []Policy
	}
	var columns []column
	if want(1) {
		columns = append(columns, column{FlowCoSynthesis, heuristics}, column{FlowPlatform, heuristics})
	}
	if want(2) {
		columns = append(columns, column{FlowCoSynthesis, versus})
	}
	if want(3) {
		columns = append(columns, column{FlowPlatform, versus})
	}

	type cell struct {
		flow   FlowKind
		bench  string
		policy Policy
	}
	var reqs []Request
	index := make(map[cell]int)
	for _, bench := range e.ordered {
		for _, col := range columns {
			for _, p := range col.policies {
				c := cell{col.flow, bench, p}
				if _, dup := index[c]; dup {
					continue
				}
				req := Request{Flow: c.flow, Benchmark: bench, Policy: p.String()}
				if c.flow == FlowCoSynthesis {
					req.FloorplanGenerations = floorplanGenerations
				}
				if err := req.Validate(); err != nil {
					return nil, err
				}
				index[c] = len(reqs)
				reqs = append(reqs, req)
			}
		}
	}
	resps, err := e.RunBatch(ctx, reqs)
	if err != nil {
		return nil, fmt.Errorf("thermalsched: paper tables: %w", err)
	}
	for i, r := range resps {
		if r.Error != "" {
			return nil, fmt.Errorf("thermalsched: %s %s/%s: %s", reqs[i].Flow, reqs[i].Benchmark, reqs[i].Policy, r.Error)
		}
	}
	metrics := func(flow FlowKind, bench string, p Policy) FlowMetrics {
		return *resps[index[cell{flow, bench, p}]].Metrics
	}
	// label is the paper's "name/tasks/edges/deadline" row label.
	label := func(bench string) string {
		g := e.benches[bench]
		return fmt.Sprintf("%s/%d/%d/%.0f", g.Name, g.NumTasks(), g.NumEdges(), g.Deadline)
	}

	out := &PaperTables{}
	if want(1) {
		t := &Table1{
			Policies: heuristics,
			CoSynth:  make(map[string][]FlowMetrics),
			Platform: make(map[string][]FlowMetrics),
		}
		for _, bench := range e.ordered {
			l := label(bench)
			t.Benchmarks = append(t.Benchmarks, l)
			for _, p := range heuristics {
				t.CoSynth[l] = append(t.CoSynth[l], metrics(FlowCoSynthesis, bench, p))
				t.Platform[l] = append(t.Platform[l], metrics(FlowPlatform, bench, p))
			}
		}
		out.Table1 = t
	}
	versusTable := func(title string, flow FlowKind) *VersusTable {
		t := &VersusTable{
			Title:   title,
			Power:   make(map[string]FlowMetrics),
			Thermal: make(map[string]FlowMetrics),
		}
		for _, bench := range e.ordered {
			l := label(bench)
			t.Benchmarks = append(t.Benchmarks, l)
			t.Power[l] = metrics(flow, bench, MinTaskEnergy)
			t.Thermal[l] = metrics(flow, bench, ThermalAware)
		}
		return t
	}
	if want(2) {
		out.Table2 = versusTable("Table 2. Power-aware vs thermal-aware approaches on co-synthesis architecture", FlowCoSynthesis)
	}
	if want(3) {
		out.Table3 = versusTable("Table 3. Power-aware vs thermal-aware approaches on platform-based architecture", FlowPlatform)
	}
	return out, nil
}
