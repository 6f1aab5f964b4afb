package thermalsched

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Table1 holds the power-heuristic comparison (paper Table 1): for each
// benchmark, the baseline and heuristics 1–3 under both architecture
// flows.
type Table1 struct {
	Benchmarks []string                 // row labels, name/tasks/edges/deadline
	Policies   []Policy                 // Baseline, H1, H2, H3
	CoSynth    map[string][]FlowMetrics // label -> cell per policy
	Platform   map[string][]FlowMetrics
}

// String renders the table in the paper's layout.
func (t *Table1) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Power heuristics under co-synthesis and platform-based architectures\n")
	fmt.Fprintf(&b, "%-22s | %27s | %27s\n", "", "co-synthesis", "platform-based arch.")
	fmt.Fprintf(&b, "%-22s | %8s %9s %9s | %8s %9s %9s\n",
		"name/task/edge/ddl", "TotPow", "MaxTemp", "AvgTemp", "TotPow", "MaxTemp", "AvgTemp")
	rowNames := []string{"(baseline)", "Heuristic 1", "Heuristic 2", "Heuristic 3"}
	for _, label := range t.Benchmarks {
		for i, rn := range rowNames {
			name := label
			if i > 0 {
				name = "  " + rn
			}
			cc := t.CoSynth[label][i]
			pc := t.Platform[label][i]
			fmt.Fprintf(&b, "%-22s | %8.2f %9.2f %9.2f | %8.2f %9.2f %9.2f\n",
				name, cc.TotalPower, cc.MaxTemp, cc.AvgTemp,
				pc.TotalPower, pc.MaxTemp, pc.AvgTemp)
		}
	}
	return b.String()
}

// VersusTable is the shared shape of Tables 2 and 3: per benchmark, the
// power-aware (heuristic 3) cell against the thermal-aware cell.
type VersusTable struct {
	Title      string
	Benchmarks []string
	Power      map[string]FlowMetrics
	Thermal    map[string]FlowMetrics
}

// String renders the versus table in the paper's layout.
func (t *VersusTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-22s | %27s | %27s\n", "", "power-aware", "thermal-aware")
	fmt.Fprintf(&b, "%-22s | %8s %9s %9s | %8s %9s %9s\n",
		"benchmark", "TotPow", "MaxTemp", "AvgTemp", "TotPow", "MaxTemp", "AvgTemp")
	for _, label := range t.Benchmarks {
		p := t.Power[label]
		th := t.Thermal[label]
		fmt.Fprintf(&b, "%-22s | %8.2f %9.2f %9.2f | %8.2f %9.2f %9.2f\n",
			label, p.TotalPower, p.MaxTemp, p.AvgTemp,
			th.TotalPower, th.MaxTemp, th.AvgTemp)
	}
	maxRed, avgRed := t.MeanReductions()
	fmt.Fprintf(&b, "mean reduction: max temp %.2f °C, avg temp %.2f °C\n", maxRed, avgRed)
	return b.String()
}

// MeanReductions returns the average (power-aware − thermal-aware)
// differences in max and avg temperature — the numbers the paper quotes
// as 10.9/6.95 °C (co-synthesis) and 9.75/5.02 °C (platform).
func (t *VersusTable) MeanReductions() (maxRed, avgRed float64) {
	if len(t.Benchmarks) == 0 {
		return 0, 0
	}
	for _, label := range t.Benchmarks {
		maxRed += t.Power[label].MaxTemp - t.Thermal[label].MaxTemp
		avgRed += t.Power[label].AvgTemp - t.Thermal[label].AvgTemp
	}
	n := float64(len(t.Benchmarks))
	return maxRed / n, avgRed / n
}

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
				index[c] = len(reqs)
				reqs = append(reqs, req)
			}
		}
	}
	checked, err := e.checkAll(reqs)
	if err != nil {
		return nil, err
	}
	resps, err := e.RunBatch(ctx, checked)
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

// ScalingRow is one task-count point of the scaling study.
type ScalingRow struct {
	Tasks    int     `json:"tasks"`
	Edges    int     `json:"edges"`
	PEs      int     `json:"pes"`
	Deadline float64 `json:"deadline"`
	Makespan float64 `json:"makespan"`
	Feasible bool    `json:"feasible"`
	MaxTempC float64 `json:"maxTempC"`
	AvgTempC float64 `json:"avgTempC"`
	// CacheHits and CacheMisses count this row's own thermal-model
	// cache lookups: one miss is the row's single factorization, hits
	// count the runs that reused it. Both read zero when the engine's
	// model cache is disabled.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	// SchedMillis is the wall-clock cost of the whole platform run
	// (scheduling plus thermal extraction) — the number the PR-2 fast
	// path keeps flat-ish as task counts grow.
	SchedMillis float64 `json:"schedMillis"`
}

// ScalingTable is the repository's first beyond-the-paper table: the
// thermal-aware platform flow driven up task counts the paper's four
// benchmarks never reach, on a generated heterogeneous platform.
type ScalingTable struct {
	PEs  int          `json:"pes"`
	Seed int64        `json:"seed"`
	Rows []ScalingRow `json:"rows"`
}

// defaultScalingSizes are the task counts of the scaling study, from
// the paper's benchmark scale (≈20 tasks) to 25× beyond it.
func defaultScalingSizes() []int { return []int{20, 50, 100, 200, 500} }

// ScalingTable runs the beyond-the-paper scaling study. Each row is
// one platform request under the thermal-aware policy on a generated
// scenario (layered shape, CCR 0.1, heterogeneous speed spread
// 0.6–2.0, grid floorplan, seed+tasks), checked and resolved like any
// Run request. Nil sizes means 20 → 500 tasks; zero pes means 8.
//
// The rows run one at a time, so each row's wall-clock SchedMillis
// is not shared with the other rows, and each row counts its
// model-cache hits and misses through a provider only it uses, so
// requests running concurrently on the same Engine are not charged to
// the row. Every other column is deterministic in (sizes, pes, seed).
func (e *Engine) ScalingTable(ctx context.Context, sizes []int, pes int, seed int64) (*ScalingTable, error) {
	if len(sizes) == 0 {
		sizes = defaultScalingSizes()
	}
	if pes == 0 {
		pes = 8
	}
	t := &ScalingTable{PEs: pes, Seed: seed}
	for _, n := range sizes {
		req := Request{Flow: FlowPlatform, Policy: ThermalAware.String(), Scenario: &ScenarioSpec{
			Name:     fmt.Sprintf("scale%d", n),
			Seed:     seed + int64(n),
			Graph:    ScenarioGraphParams{Tasks: n, CCR: 0.1},
			Platform: ScenarioPlatformParams{PEs: pes, MinSpeed: 0.6, MaxSpeed: 2.0},
		}}
		c, err := e.Check(req)
		if err != nil {
			return nil, fmt.Errorf("thermalsched: scaling %d tasks: %w", n, err)
		}
		row, err := e.scalingRow(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("thermalsched: scaling %d tasks: %w", n, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// scalingRow runs one scaling request through the platform flow's own
// path, Engine.platform, with a fresh counting model provider.
func (e *Engine) scalingRow(ctx context.Context, c *Checked) (ScalingRow, error) {
	in, err := e.input(c)
	if err != nil {
		return ScalingRow{}, err
	}
	var hits, misses atomic.Uint64
	//thermalvet:allow walltime(SchedMillis measures scheduler latency for the scaling table; the table is documented deterministic modulo wall-clock)
	start := time.Now()
	res, err := e.platform(ctx, in, c, e.countingModelProvider(&hits, &misses))
	if err != nil {
		return ScalingRow{}, err
	}
	return ScalingRow{
		Tasks:       in.graph.NumTasks(),
		Edges:       in.graph.NumEdges(),
		PEs:         c.req.Scenario.Platform.PEs,
		Deadline:    in.graph.Deadline,
		Makespan:    res.Metrics.Makespan,
		Feasible:    res.Metrics.Feasible,
		MaxTempC:    res.Metrics.MaxTemp,
		AvgTempC:    res.Metrics.AvgTemp,
		CacheHits:   hits.Load(),
		CacheMisses: misses.Load(),
		//thermalvet:allow walltime(SchedMillis measures scheduler latency for the scaling table; the table is documented deterministic modulo wall-clock)
		SchedMillis: float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// String renders the scaling table.
func (t *ScalingTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling study: thermal-aware platform flow on a generated %d-PE heterogeneous platform (seed %d)\n",
		t.PEs, t.Seed)
	fmt.Fprintf(&b, "%7s %7s | %9s %9s %8s | %9s %9s | %5s/%-5s | %9s\n",
		"tasks", "edges", "makespan", "deadline", "feas", "MaxTemp", "AvgTemp", "hit", "miss", "sched ms")
	for _, r := range t.Rows {
		feas := "met"
		if !r.Feasible {
			feas = "MISSED"
		}
		fmt.Fprintf(&b, "%7d %7d | %9.1f %9.1f %8s | %9.2f %9.2f | %5d/%-5d | %9.2f\n",
			r.Tasks, r.Edges, r.Makespan, r.Deadline, feas, r.MaxTempC, r.AvgTempC,
			r.CacheHits, r.CacheMisses, r.SchedMillis)
	}
	return b.String()
}
