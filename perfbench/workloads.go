package main

import (
	"encoding/json"
	"fmt"

	"thermalsched"
)

// workload is one closed-loop request list: a single client sends the
// requests one after another, each after the previous reply. Every
// request of a workload has the same flow, policy and shape; only the
// input seeds differ, so no tail percentile sits on a boundary between
// two request sizes.
type workload struct {
	name string
	// distinct is the number of different requests in a run; the timed
	// list cycles through them. It stays below the engine's scenario and
	// stream cache capacity (128), so warm-up leaves every input cached.
	distinct int
	// rate is the nominal request rate on the reference host (2 vCPU).
	// A run holds max(minRequests, seconds × rate) requests, rounded up
	// to whole cycles: the work per run is fixed, not the duration.
	rate float64
	// warmAll warms up with one pass over the distinct requests (their
	// generated inputs and thermal models then sit in the engine's
	// caches); otherwise warm-up runs warmExtra requests whose seeds lie
	// outside the timed list.
	warmAll   bool
	warmExtra int
	// setups is how many times a run sets up a fresh engine; setup_s is
	// their median. Each workload's set-ups add up to about 2 s or more
	// on the reference host, so one slow set-up does not move it.
	setups int
	// request builds the i-th distinct request from its input seed.
	request func(inputSeed int64) thermalsched.Request
}

// minRequests keeps at least ten samples beyond the 90th percentile.
const minRequests = 100

// seedStride separates the input seeds of neighbouring workload seeds,
// so two workload seeds never share an input.
const seedStride = 10007

var workloads = []workload{
	{
		// Paper Fig. 1b on generated scenarios: the thermal-aware ASP on
		// warm scenario and model caches.
		name: "platform", distinct: 100, rate: 450, warmAll: true, setups: 9,
		request: func(s int64) thermalsched.Request {
			return thermalsched.Request{
				Flow:   thermalsched.FlowPlatform,
				Policy: "thermal",
				Scenario: &thermalsched.ScenarioSpec{
					Seed:     s,
					Graph:    thermalsched.ScenarioGraphParams{Tasks: 200},
					Platform: thermalsched.ScenarioPlatformParams{PEs: 8, MinSpeed: 0.6, MaxSpeed: 2.0},
				},
			}
		},
	},
	{
		// Paper Fig. 1a: architecture search with GA floorplanning in the
		// loop, 100 GA seeds. MaxPEs 4: uncapped, Bm1's search ends at 4
		// PEs (~170 ms) for about two seeds in three and at 5–6 PEs
		// (~550 ms) for the rest, so p90 would sit between two request
		// sizes; capped, every seed ends at 4 PEs in 39–56 ms.
		name: "cosynthesis", distinct: 100, rate: 20, warmExtra: 3, setups: 15,
		request: func(s int64) thermalsched.Request {
			return thermalsched.Request{
				Flow:                 thermalsched.FlowCoSynthesis,
				Benchmark:            "Bm1",
				Policy:               "thermal",
				MaxPEs:               4,
				FloorplanGenerations: 2,
				Parallelism:          1,
				Seed:                 &s,
			}
		},
	},
	{
		// Online dispatch under predictive admission control: transient
		// stepping through coloop, dtm admission and the stream loop.
		name: "online", distinct: 100, rate: 60, warmAll: true, setups: 3,
		request: func(s int64) thermalsched.Request {
			return thermalsched.Request{
				Flow:        thermalsched.FlowStream,
				Policy:      thermalsched.StreamPolicyAdmit,
				Parallelism: 1,
				Stream: &thermalsched.StreamSpec{
					Seed:      s,
					MinFactor: 0.8,
					Arrivals:  thermalsched.StreamArrivalParams{Horizon: 600, Sources: 8, Rate: 0.2, BurstMean: 2},
					Platform:  thermalsched.ScenarioPlatformParams{PEs: 16},
				},
			}
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// requestList is a run's inputs: the distinct request bodies and the
// length of the timed list that cycles through them.
type requestList struct {
	bodies [][]byte // JSON /v1/run bodies, one per distinct request
	warmup [][]byte // warm-up bodies outside the timed list (may be empty)
	n      int      // timed requests: bodies[i % len(bodies)] for i < n
}

// buildList derives a run's requests from the workload seed alone.
func buildList(w workload, seed int64, seconds int) (requestList, error) {
	base := seed * seedStride
	var l requestList
	for i := 0; i < w.distinct; i++ {
		b, err := json.Marshal(w.request(base + int64(i)))
		if err != nil {
			return l, err
		}
		l.bodies = append(l.bodies, b)
	}
	for i := 0; i < w.warmExtra; i++ {
		b, err := json.Marshal(w.request(base + int64(w.distinct+i)))
		if err != nil {
			return l, err
		}
		l.warmup = append(l.warmup, b)
	}
	n := int(float64(seconds)*w.rate + 0.5)
	if n < minRequests {
		n = minRequests
	}
	l.n = (n + w.distinct - 1) / w.distinct * w.distinct
	return l, nil
}
