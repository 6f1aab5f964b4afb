package scenario

import (
	"runtime"
	"testing"
)

// A cached 200-task scenario (the platform benchmark's shape) holds its
// graph, indexed for reading, in no more heap than the unindexed graph
// with per-task adjacency lists it replaced: 50887 B with the Scenario,
// measured the same way.
func TestScenarioRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	const n = 20
	const pinnedBytes = 50887
	kept := make([]*Scenario, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range kept {
		s, err := Generate(Spec{
			Seed:     int64(i + 1),
			Graph:    GraphParams{Tasks: 200},
			Platform: PlatformParams{PEs: 8, MinSpeed: 0.6, MaxSpeed: 2.0},
		})
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = s
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("retained %d B per 200-task scenario", per)
	if per > pinnedBytes {
		t.Errorf("a 200-task scenario retains %d B, want at most %d", per, pinnedBytes)
	}
}
