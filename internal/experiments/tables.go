// Package experiments renders the paper's evaluation artifacts:
// Table 1 (power-heuristic comparison under co-synthesis and
// platform-based architectures), Table 2 (power-aware vs thermal-aware
// co-synthesis), and Table 3 (power-aware vs thermal-aware platform),
// plus the repository's scaling study. Engine.PaperTables in the root
// package fills Tables 1–3 from one batch of flow requests. Output
// formatting mirrors the paper's row/column layout so the tables can
// be compared side by side.
package experiments

import (
	"fmt"
	"strings"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/sched"
)

// Table1 holds the power-heuristic comparison (paper Table 1): for each
// benchmark, the baseline and heuristics 1–3 under both architecture
// flows.
type Table1 struct {
	Benchmarks []string                     // row labels, name/tasks/edges/deadline
	Policies   []sched.Policy               // Baseline, H1, H2, H3
	CoSynth    map[string][]cosynth.Metrics // label -> cell per policy
	Platform   map[string][]cosynth.Metrics
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
	Power      map[string]cosynth.Metrics
	Thermal    map[string]cosynth.Metrics
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
