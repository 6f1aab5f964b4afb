package sched

import (
	"context"
	"reflect"
	"testing"

	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

func bm1Platform(t *testing.T) (*taskgraph.Graph, Architecture, *techlib.Library) {
	t.Helper()
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskgraph.Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	arch, err := PlatformFromTypes(lib, techlib.PlatformPETypeNames(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return g, arch, lib
}

// One Prepared serves every policy, in any order, with the schedule
// AllocateAndSchedule computes from scratch.
func TestPreparedServesEveryPolicy(t *testing.T) {
	g, arch, lib := bm1Platform(t)
	p, err := Prepare(g, arch, lib)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{MinTaskEnergy, Baseline, MinPEPower, MinTaskPower, MinTaskEnergy} {
		got, err := p.Schedule(context.Background(), DefaultConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		want, err := AllocateAndSchedule(context.Background(), g, arch, lib, DefaultConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: prepared schedule %v, want %v", policy, got, want)
		}
	}
	if _, err := p.Schedule(context.Background(), DefaultConfig(ThermalAware)); err == nil {
		t.Error("thermal-aware schedule without an oracle accepted")
	}
}

// Scheduling Bm1 on the 4-PE platform allocates a fixed handful of
// objects: the preparation's criticality and library-row tables, then
// per schedule its assignment and bookkeeping slices and the result.
// Reading the indexed graph allocates nothing.
func TestScheduleBm1Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	g, arch, lib := bm1Platform(t)
	cfg := DefaultConfig(MinTaskEnergy)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := AllocateAndSchedule(ctx, g, arch, lib, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const pinned = 9
	if allocs > pinned {
		t.Errorf("AllocateAndSchedule(Bm1, 4 PEs) allocates %.0f times, want at most %d", allocs, pinned)
	}
}
