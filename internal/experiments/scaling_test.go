package experiments

import (
	"context"
	"testing"

	"thermalsched/internal/cosynth"
)

func TestRunScalingTable(t *testing.T) {
	sizes := []int{20, 60, 150}
	if testing.Short() {
		sizes = []int{20, 60}
	}
	tab, err := RunScalingTable(context.Background(), sizes, 6, 3, cosynth.PlatformConfig{}, nil)
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
		if r.CacheHits != 0 || r.CacheMisses != 0 {
			t.Errorf("row %d: cache stats %d/%d with no stats hook", i, r.CacheHits, r.CacheMisses)
		}
	}
	if feasible*2 < len(tab.Rows) {
		t.Errorf("only %d/%d rows feasible at default tightness", feasible, len(tab.Rows))
	}
	if s := tab.String(); len(s) == 0 {
		t.Error("empty rendering")
	}

	// The generated inputs are deterministic: a second run must land on
	// identical schedule-quality numbers (only SchedMillis may differ).
	again, err := RunScalingTable(context.Background(), sizes, 6, 3, cosynth.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		a, b := tab.Rows[i], again.Rows[i]
		a.SchedMillis, b.SchedMillis = 0, 0
		if a != b {
			t.Errorf("row %d differs between runs:\n%+v\n%+v", i, a, b)
		}
	}
}
