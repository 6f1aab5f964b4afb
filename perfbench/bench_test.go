package main

import (
	"bytes"
	"testing"
)

func TestSameSeedSameRequestList(t *testing.T) {
	for _, w := range workloads {
		a, err := buildList(w, 7, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildList(w, 7, 20)
		if err != nil {
			t.Fatal(err)
		}
		if a.n != b.n || len(a.bodies) != len(b.bodies) || len(a.warmup) != len(b.warmup) {
			t.Fatalf("%s: list shape differs between builds", w.name)
		}
		for i := range a.bodies {
			if !bytes.Equal(a.bodies[i], b.bodies[i]) {
				t.Fatalf("%s: request %d differs between builds", w.name, i)
			}
		}
		for i := range a.warmup {
			if !bytes.Equal(a.warmup[i], b.warmup[i]) {
				t.Fatalf("%s: warm-up request %d differs between builds", w.name, i)
			}
		}
		if a.n < minRequests || a.n%len(a.bodies) != 0 {
			t.Fatalf("%s: %d requests is not whole cycles of %d with at least %d", w.name, a.n, len(a.bodies), minRequests)
		}
		c, err := buildList(w, 8, 20)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.bodies[0], c.bodies[0]) {
			t.Fatalf("%s: seeds 7 and 8 give the same first request", w.name)
		}
	}
}

// deterministic are the metrics that depend on the inputs only.
var deterministic = []string{
	"mean_peak_temp_c", "mean_avg_temp_c", "deadline_met_rate", "success_rate",
	"engine.model_cache_lookups_per_req", "hotspot.model_builds_per_req",
	"engine.scenario_cache_lookups_per_req", "engine.stream_cache_lookups_per_req",
	"search.evals_per_req", "search.memo_hit_ratio",
	"coloop.steps_per_req", "dtm.admission_denials_per_req",
}

func TestShortRunsRepeat(t *testing.T) {
	sizes := map[string][2]int{"platform": {4, 8}, "cosynthesis": {2, 2}, "online": {2, 4}}
	for _, w := range workloads {
		size := sizes[w.name]
		var digests []string
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 1, trace: trace, setups: 1,
				distinct: size[0], requests: size[1]}
			var runs []*result
			for i := 0; i < 2; i++ {
				res, sum, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("%s trace=%v: correct=%v failed=%d notes=%v", w.name, trace, res.Correct, res.Failed, sum.notes)
				}
				runs = append(runs, res)
				digests = append(digests, sum.digest)
			}
			for _, name := range deterministic {
				a, okA := runs[0].Metrics[name]
				b, okB := runs[1].Metrics[name]
				if okA != okB || a != b {
					t.Errorf("%s trace=%v: %s differs between runs: %v vs %v", w.name, trace, name, a, b)
				}
			}
		}
		for _, d := range digests[1:] {
			if d != digests[0] {
				t.Errorf("%s: output digests differ across runs: %v", w.name, digests)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "thermalsched/internal/linalg.FactorLU", "thermalsched/internal/hotspot.NewModel"}, "linalg"},
		{[]string{"thermalsched/internal/sched.(*ModelOracle).AvgTempDelta", "thermalsched/internal/sched.AllocateAndScheduleCtx"}, "oracle"},
		{[]string{"thermalsched/internal/hotspot.(*Model).SteadyStateInto", "thermalsched/internal/sched.(*ModelOracle).Temps"}, "oracle"},
		{[]string{"thermalsched/internal/search.(*LRU[go.shape.*uint8]).Get", "thermalsched/internal/floorplan.RunGACtx"}, "search"},
		{[]string{"fmt.Fprintf", "thermalsched.modelKey", "thermalsched.(*Engine).modelProvider.func1"}, "engine"},
		{[]string{"encoding/json.Marshal", "thermalsched/internal/service.writeJSON"}, "service"},
		{[]string{"thermalsched/internal/taskgraph.(*Graph).Clone"}, "other"},
		{[]string{"net/http.(*ServeMux).findHandler", "net/http.(*ServeMux).ServeHTTP", "main.(*bench).send"}, "service"},
		{[]string{"net/http/httptest.NewRequest", "main.newInputs"}, "client"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "goruntime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
