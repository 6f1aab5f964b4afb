package cosynth

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"thermalsched/internal/sched"
	"thermalsched/internal/search"
)

// cosynthKey captures the observable outcome of a co-synthesis run —
// metrics, architecture, floorplan geometry and per-task assignment —
// for byte-identity comparisons across parallelism levels.
func cosynthKey(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "metrics=%+v\n", r.Metrics)
	for _, pe := range r.Arch.PEs {
		fmt.Fprintf(&b, "pe=%s type=%d\n", pe.Name, pe.Type)
	}
	if err := r.Plan.Write(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(&b, r.Schedule.Gantt())
	return b.String()
}

// The co-synthesis search visits exactly the architectures the serial
// flow visits: candidate neighborhoods are enumerated serially,
// evaluated over the pool, and selected in submission order, so the
// result is byte-identical at every parallelism level.
func TestCoSynthesisParallelMatchesSerial(t *testing.T) {
	lib := stdLib(t)
	g := bm(t, "Bm1")
	for _, policy := range []sched.Policy{sched.MinTaskEnergy, sched.ThermalAware} {
		serial, err := RunCoSynthesis(context.Background(), g, lib, CoSynthConfig{
			Policy: policy, FloorplanGenerations: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := cosynthKey(t, serial)
		for _, p := range []int{2, 4} {
			got, err := RunCoSynthesis(context.Background(), g, lib, CoSynthConfig{
				Policy: policy, FloorplanGenerations: 8, Search: search.NewPool(p),
			})
			if err != nil {
				t.Fatal(err)
			}
			if key := cosynthKey(t, got); key != want {
				t.Errorf("policy %v P=%d diverged from serial:\n got %s\nwant %s", policy, p, key, want)
			}
		}
	}
}

// A shared pool (the Engine's wiring) gives the serial result, and the
// final Result aggregates the floorplanner's search accounting.
func TestCoSynthesisSharedPoolAndStats(t *testing.T) {
	lib := stdLib(t)
	g := bm(t, "Bm1")
	pool := search.NewPool(4)
	res, err := RunCoSynthesis(context.Background(), g, lib, CoSynthConfig{
		Policy: sched.ThermalAware, FloorplanGenerations: 8, Search: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchEvals <= 0 {
		t.Errorf("SearchEvals = %d, want > 0", res.SearchEvals)
	}
	if res.SearchMemoHits <= 0 {
		t.Errorf("SearchMemoHits = %d, want > 0 (convergent GA populations revisit genomes)", res.SearchMemoHits)
	}
	serial, err := RunCoSynthesis(context.Background(), g, lib, CoSynthConfig{
		Policy: sched.ThermalAware, FloorplanGenerations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cosynthKey(t, res) != cosynthKey(t, serial) {
		t.Error("shared-pool run diverged from serial")
	}
}
