package thermalsched

import (
	"context"
	"strings"
	"testing"
)

// PaperTables runs only the selected tables' cells, and each (flow,
// benchmark, policy) cell once. The co-synthesis cells are visible in
// the engine's search counters: Table 3 alone runs none, and all three
// tables together evaluate fewer floorplans than Tables 1 and 2 apart,
// because the heuristic-3 co-synthesis cells they share run once.
func TestPaperTablesRunSelectedCellsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("paper tables skipped in -short mode")
	}
	evals := func(table int) uint64 {
		t.Helper()
		e := testEngine(t)
		tabs, err := e.PaperTables(context.Background(), table, 2)
		if err != nil {
			t.Fatal(err)
		}
		for n, present := range []bool{tabs.Table1 != nil, tabs.Table2 != nil, tabs.Table3 != nil} {
			if want := table == 0 || table == n+1; present != want {
				t.Errorf("table %d: Table%d present %v, want %v", table, n+1, present, want)
			}
		}
		ev, _ := e.SearchMemoStats()
		return ev
	}
	if ev := evals(3); ev != 0 {
		t.Errorf("Table 3 alone ran co-synthesis: %d floorplan evaluations", ev)
	}
	all, t1, t2 := evals(0), evals(1), evals(2)
	if t1 == 0 || t2 == 0 {
		t.Fatalf("Tables 1 and 2 ran no co-synthesis (%d, %d evaluations)", t1, t2)
	}
	if all >= t1+t2 {
		t.Errorf("all tables evaluated %d floorplans, Tables 1 and 2 apart %d+%d: shared cells ran twice", all, t1, t2)
	}
}

// An out-of-range table number and an invalid knob fail before any
// cell runs, the knob with the same FieldError Run reports.
func TestPaperTablesRejectsBadArguments(t *testing.T) {
	e := testEngine(t)
	if _, err := e.PaperTables(context.Background(), 4, 20); err == nil || !strings.Contains(err.Error(), "unknown table 4") {
		t.Errorf("table 4: err %v", err)
	}
	_, err := e.PaperTables(context.Background(), 2, -3)
	req := NewRequest(FlowCoSynthesis, WithBenchmark("Bm1"), WithFloorplanGenerations(-3))
	want := req.Validate()
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("floorplanGenerations -3: err %v, want %v", err, want)
	}
	if ev, _ := e.SearchMemoStats(); ev != 0 {
		t.Errorf("rejected tables ran %d floorplan evaluations", ev)
	}
}
