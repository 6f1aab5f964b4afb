package cosynth

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
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

// The perfbench cosynthesis request shape (Bm1, thermal policy, at
// most 4 PEs, 2 GA generations, seed 1, serial) reports pinned search
// totals. Each architecture is evaluated once per run and only
// evaluations actually run are counted, so a lost architecture memo
// or a double count moves these numbers.
func TestCoSynthesisSearchTotalsPinned(t *testing.T) {
	res, err := RunCoSynthesis(context.Background(), bm(t, "Bm1"), stdLib(t), CoSynthConfig{
		Policy: sched.ThermalAware, MaxPEs: 4, FloorplanGenerations: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchEvals != 640 || res.SearchMemoHits != 2492 {
		t.Errorf("SearchEvals/SearchMemoHits = %d/%d, want 640/2492", res.SearchEvals, res.SearchMemoHits)
	}
}

// The architecture memo evaluates each distinct PE-type list once,
// serves repeats within and across batches from one Result, counts
// only the evaluations it ran, and under keepGoing leaves a failed
// slot's error for the caller's in-order scan while its neighbours
// still score, serially and over a pool alike.
func TestArchMemoScoreBatch(t *testing.T) {
	lib := stdLib(t)
	fast, _ := lib.PETypeIndex("pe-fast")
	failFast := func(fp *floorplan.Floorplan, cfg hotspot.Config) (*hotspot.Model, error) {
		for _, b := range fp.Blocks() {
			if b.Rect.Area() == lib.PEType(fast).Area {
				return nil, errors.New("no model for pe-fast")
			}
		}
		return hotspot.NewModel(fp, cfg)
	}
	for _, p := range []int{1, 2} {
		c, err := (&CoSynthConfig{
			Policy: sched.MinTaskEnergy, FloorplanGenerations: 1, Models: failFast, Search: search.NewPool(p),
		}).withDefaults(lib)
		if err != nil {
			t.Fatal(err)
		}
		m := newArchMemo(context.Background(), bm(t, "Bm1"), lib, c)
		out, errs, err := m.scoreBatch([][]int{{0}, {fast}, {0}, {1}}, true)
		if err != nil {
			t.Fatal(err)
		}
		if errs[1] == nil || errs[0] != nil || errs[2] != nil || errs[3] != nil {
			t.Fatalf("P=%d: per-slot errors %v, want only slot 1", p, errs)
		}
		if out[0] == nil || out[0] != out[2] || out[3] == nil || out[1] != nil {
			t.Fatalf("P=%d: results %v, want slots 0 and 2 to share one Result", p, out)
		}
		want := out[0].SearchEvals + out[3].SearchEvals
		if m.evals != want {
			t.Errorf("P=%d: %d evaluations counted, want %d (two architectures run)", p, m.evals, want)
		}
		again, err := m.score([]int{0})
		if err != nil || again != out[0] || m.evals != want {
			t.Errorf("P=%d: repeat lookup = %p, %v, %d evaluations; want the memoized Result and no new count", p, again, err, m.evals)
		}
		if _, _, err := m.scoreBatch([][]int{{1}, {fast}}, false); err == nil {
			t.Errorf("P=%d: batch with a failing slot returned no error", p)
		}
	}
}
