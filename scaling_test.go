package thermalsched

import (
	"context"
	"testing"
)

// ScalingTable honours its sizes, PE count and seed, schedules every
// row plausibly, and lands on identical deterministic columns when run
// again on the same engine (only SchedMillis may differ; the second
// run's rows hit the model each first run factored).
func TestScalingTableRows(t *testing.T) {
	sizes := []int{20, 60, 150}
	if testing.Short() {
		sizes = []int{20, 60}
	}
	e := testEngine(t)
	tab, err := e.ScalingTable(context.Background(), sizes, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(sizes) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(sizes))
	}
	feasible := 0
	for i, r := range tab.Rows {
		if r.Tasks != sizes[i] {
			t.Errorf("row %d: tasks %d, want %d", i, r.Tasks, sizes[i])
		}
		if r.PEs != 6 {
			t.Errorf("row %d: PEs %d, want 6", i, r.PEs)
		}
		if r.Edges < r.Tasks-1 {
			t.Errorf("row %d: %d edges for %d tasks (disconnected?)", i, r.Edges, r.Tasks)
		}
		if !(r.Makespan > 0) || !(r.Deadline > 0) {
			t.Errorf("row %d: non-positive makespan %g or deadline %g", i, r.Makespan, r.Deadline)
		}
		if r.Feasible {
			feasible++
		} else if r.Makespan > 1.5*r.Deadline {
			// The thermal-aware ASP may trade some makespan past a
			// default-tightness deadline, but not grossly.
			t.Errorf("row %d: makespan %g far beyond deadline %g", i, r.Makespan, r.Deadline)
		}
		if r.MaxTempC < 30 || r.MaxTempC > 200 {
			t.Errorf("row %d: implausible max temperature %g", i, r.MaxTempC)
		}
		if r.AvgTempC > r.MaxTempC {
			t.Errorf("row %d: avg temp %g exceeds max temp %g", i, r.AvgTempC, r.MaxTempC)
		}
		if r.SchedMillis < 0 {
			t.Errorf("row %d: negative scheduling time %g", i, r.SchedMillis)
		}
	}
	if feasible*2 < len(tab.Rows) {
		t.Errorf("only %d/%d rows feasible at default tightness", feasible, len(tab.Rows))
	}
	if s := tab.String(); len(s) == 0 {
		t.Error("empty rendering")
	}

	// The generated inputs are deterministic: a second run must land on
	// identical schedule-quality numbers (only SchedMillis may differ),
	// and each of its rows reuses the model its first run factored.
	again, err := e.ScalingTable(context.Background(), sizes, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		a, b := tab.Rows[i], again.Rows[i]
		if a.CacheHits != 0 || a.CacheMisses != 1 || b.CacheHits != 1 || b.CacheMisses != 0 {
			t.Errorf("row %d: hit/miss %d/%d then %d/%d, want 0/1 then 1/0",
				i, a.CacheHits, a.CacheMisses, b.CacheHits, b.CacheMisses)
		}
		a.SchedMillis, b.SchedMillis = 0, 0
		a.CacheHits, a.CacheMisses, b.CacheHits, b.CacheMisses = 0, 0, 0, 0
		if a != b {
			t.Errorf("row %d differs between runs:\n%+v\n%+v", i, a, b)
		}
	}
}
