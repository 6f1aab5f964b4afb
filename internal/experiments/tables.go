package experiments

import (
	"fmt"
	"strings"

	"thermalsched/internal/sched"
)

// Table1 holds the power-heuristic comparison (paper Table 1): for each
// benchmark, the baseline and heuristics 1–3 under both architecture
// flows.
type Table1 struct {
	Benchmarks []string          // row labels, name/tasks/edges/deadline
	Policies   []sched.Policy    // Baseline, H1, H2, H3
	CoSynth    map[string][]Cell // label -> cell per policy
	Platform   map[string][]Cell
}

// RunTable1 regenerates Table 1.
func (s *Suite) RunTable1() (*Table1, error) {
	t := &Table1{
		Policies: []sched.Policy{sched.Baseline, sched.MinTaskPower, sched.MinPEPower, sched.MinTaskEnergy},
		CoSynth:  make(map[string][]Cell),
		Platform: make(map[string][]Cell),
	}
	for _, g := range s.Graphs {
		label := benchLabel(g)
		t.Benchmarks = append(t.Benchmarks, label)
		for _, p := range t.Policies {
			cc, err := s.CoSynthCell(g, p)
			if err != nil {
				return nil, err
			}
			pc, err := s.PlatformCell(g, p)
			if err != nil {
				return nil, err
			}
			t.CoSynth[label] = append(t.CoSynth[label], cc)
			t.Platform[label] = append(t.Platform[label], pc)
		}
	}
	return t, nil
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
	Power      map[string]Cell
	Thermal    map[string]Cell
}

// RunTable2 regenerates Table 2: power-aware vs thermal-aware
// co-synthesis.
func (s *Suite) RunTable2() (*VersusTable, error) {
	t := &VersusTable{
		Title:   "Table 2. Power-aware vs thermal-aware approaches on co-synthesis architecture",
		Power:   make(map[string]Cell),
		Thermal: make(map[string]Cell),
	}
	for _, g := range s.Graphs {
		label := benchLabel(g)
		t.Benchmarks = append(t.Benchmarks, label)
		pc, err := s.CoSynthCell(g, sched.MinTaskEnergy)
		if err != nil {
			return nil, err
		}
		tc, err := s.CoSynthCell(g, sched.ThermalAware)
		if err != nil {
			return nil, err
		}
		t.Power[label] = pc
		t.Thermal[label] = tc
	}
	return t, nil
}

// RunTable3 regenerates Table 3: power-aware vs thermal-aware on the
// platform architecture.
func (s *Suite) RunTable3() (*VersusTable, error) {
	t := &VersusTable{
		Title:   "Table 3. Power-aware vs thermal-aware approaches on platform-based architecture",
		Power:   make(map[string]Cell),
		Thermal: make(map[string]Cell),
	}
	for _, g := range s.Graphs {
		label := benchLabel(g)
		t.Benchmarks = append(t.Benchmarks, label)
		pc, err := s.PlatformCell(g, sched.MinTaskEnergy)
		if err != nil {
			return nil, err
		}
		tc, err := s.PlatformCell(g, sched.ThermalAware)
		if err != nil {
			return nil, err
		}
		t.Power[label] = pc
		t.Thermal[label] = tc
	}
	return t, nil
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
