package thermalsched

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// respJSON marshals a response with the wall-clock field zeroed, for
// byte-identity comparisons.
func respJSON(t *testing.T, resp *Response) string {
	t.Helper()
	r := *resp
	r.ElapsedMS = 0
	blob, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// The acceptance property of the parallel search backbone: for every
// paper benchmark, the co-synthesis Response JSON is byte-identical
// whether the search runs serially (parallelism 1), at an explicit
// parallel setting, or at the engine default (GOMAXPROCS).
func TestCoSynthesisResponseParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("four co-synthesis runs per parallelism level skipped in -short mode")
	}
	e := testEngine(t)
	ctx := context.Background()
	for _, bench := range []string{"Bm1", "Bm2", "Bm3", "Bm4"} {
		serialReq := NewRequest(FlowCoSynthesis,
			WithBenchmark(bench), WithFloorplanGenerations(8), WithParallelism(1))
		serial, err := e.Run(ctx, serialReq)
		if err != nil {
			t.Fatal(err)
		}
		want := respJSON(t, serial)
		for _, p := range []int{0, 4} { // 0 = engine default
			req := NewRequest(FlowCoSynthesis,
				WithBenchmark(bench), WithFloorplanGenerations(8), WithParallelism(p))
			got, err := e.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if respJSON(t, got) != want {
				t.Errorf("%s: parallelism %d response diverged from serial", bench, p)
			}
		}
	}
}

// The generated-scenario campaign carries the same guarantee across the
// whole stack: one engine pinned serial, one with a parallel search
// backbone, byte-identical campaign reports.
func TestCampaignResponseParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("50-scenario campaign pair skipped in -short mode")
	}
	serialEngine, err := NewEngine(WithSearchParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallelEngine, err := NewEngine(WithSearchParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
		Scenarios: 50,
		Seed:      2005,
		MinTasks:  20,
		MaxTasks:  200,
	}))
	ctx := context.Background()
	serial, err := serialEngine.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parallelEngine.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if respJSON(t, serial) != respJSON(t, parallel) {
		t.Error("50-scenario campaign diverged between serial and parallel engines")
	}
}

// Search parallelism composes with the RunBatch worker pool: batch
// entries share the engine-wide token pool, every entry succeeds, and
// each equals its standalone serial run. (This is the parallel
// backbone's composed-concurrency path; CI runs it under -race.)
func TestRunBatchComposesWithSearchPool(t *testing.T) {
	e, err := NewEngine(WithWorkers(4), WithSearchParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = NewRequest(FlowCoSynthesis, WithBenchmark("Bm1"), WithFloorplanGenerations(6))
	}
	resps, err := e.RunBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := e.Run(ctx, NewRequest(FlowCoSynthesis,
		WithBenchmark("Bm1"), WithFloorplanGenerations(6), WithParallelism(1)))
	if err != nil {
		t.Fatal(err)
	}
	want := respJSON(t, serial)
	for i, resp := range resps {
		if resp.Error != "" {
			t.Fatalf("batch entry %d failed: %s", i, resp.Error)
		}
		if respJSON(t, resp) != want {
			t.Errorf("batch entry %d diverged from the standalone serial run", i)
		}
	}
}

// SearchMemoStats aggregates the floorplanner's memo accounting across
// co-synthesis runs, like ScenarioCacheStats does for scenarios.
func TestSearchMemoStats(t *testing.T) {
	e := testEngine(t)
	evals0, hits0 := e.SearchMemoStats()
	if evals0 != 0 || hits0 != 0 {
		t.Fatalf("fresh engine reports %d evals, %d hits", evals0, hits0)
	}
	_, err := e.Run(context.Background(), NewRequest(FlowCoSynthesis,
		WithBenchmark("Bm1"), WithFloorplanGenerations(8)))
	if err != nil {
		t.Fatal(err)
	}
	evals, hits := e.SearchMemoStats()
	if evals == 0 {
		t.Error("co-synthesis reported no packing evaluations")
	}
	if hits == 0 {
		t.Error("co-synthesis reported no memo hits (convergent GA populations revisit genomes)")
	}
}

// Request validation covers the new knob.
func TestRequestParallelismValidation(t *testing.T) {
	req := NewRequest(FlowCoSynthesis, WithBenchmark("Bm1"), WithParallelism(-2))
	if err := req.Validate(); err == nil {
		t.Error("negative parallelism accepted")
	}
	req = NewRequest(FlowPlatform, WithBenchmark("Bm1"), WithParallelism(4))
	if err := req.Validate(); err == nil {
		t.Error("parallelism on a non-search flow accepted (it would be silently ignored)")
	}
	req = NewRequest(FlowCoSynthesis, WithBenchmark("Bm1"), WithParallelism(4))
	if err := req.Validate(); err != nil {
		t.Errorf("cosynthesis parallelism rejected: %v", err)
	}
	if _, err := NewEngine(WithSearchParallelism(0)); err == nil {
		t.Error("zero engine search parallelism accepted")
	}
}

// The simulate flow must be byte-identical across parallelism levels:
// replica fan-out order is a scheduling detail, never a result detail.
// That holds for a request-level Parallelism and for a request that
// inherits the engine's WithSearchParallelism; and a multi-replica run
// cancelled mid fan-out reports the cancellation promptly.
func TestSimulateFlowParallelismByteIdentical(t *testing.T) {
	req := func(parallelism, replicas int) Request {
		r := NewRequest(FlowSimulate, WithBenchmark("Bm2"), WithSimulate(SimulateSpec{
			Controller: "admit", Replicas: replicas, MinFactor: 0.7, Seed: 5,
		}))
		r.Parallelism = parallelism
		return r
	}
	ctx := context.Background()
	e := testEngine(t)
	serial, err := e.Run(ctx, req(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	want := respJSON(t, serial)
	for _, p := range []int{2, 4} {
		got, err := e.Run(ctx, req(p, 6))
		if err != nil {
			t.Fatal(err)
		}
		if respJSON(t, got) != want {
			t.Errorf("parallelism %d response diverged from serial", p)
		}
	}
	for _, sp := range []int{1, 4} {
		pe, err := NewEngine(WithSearchParallelism(sp))
		if err != nil {
			t.Fatal(err)
		}
		got, err := pe.Run(ctx, req(0, 6))
		if err != nil {
			t.Fatal(err)
		}
		if respJSON(t, got) != want {
			t.Errorf("engine search parallelism %d response diverged from serial", sp)
		}
	}

	// Thousands of replicas take far longer than the cancellation
	// delay, so the run is cut inside the replica fan-out.
	for _, p := range []int{1, 4} {
		cctx, cancel := context.WithCancel(ctx)
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		_, err := e.Run(cctx, req(p, MaxSimulateReplicas))
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: cancelled run returned %v, want context.Canceled", p, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("parallelism %d: cancellation took %v, want a prompt abort", p, elapsed)
		}
	}
}

// Simulate and stream replicas draw from the same engine-wide pool as
// co-synthesis: concurrent RunBatch workers fanning replicas out at once
// each still produce their standalone serial response. (CI runs it
// under -race.)
func TestRunBatchComposesWithReplicaPool(t *testing.T) {
	e, err := NewEngine(WithWorkers(4), WithSearchParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := []Request{
		NewRequest(FlowSimulate, WithBenchmark("Bm1"), WithSimulate(SimulateSpec{Replicas: 6, MinFactor: 0.7, Seed: 1})),
		NewRequest(FlowSimulate, WithBenchmark("Bm2"), WithSimulate(SimulateSpec{Controller: "zigzag", Replicas: 6, MinFactor: 0.7})),
		NewRequest(FlowStream, WithStream(StreamSpec{Seed: 3, MinFactor: 0.7, Replicas: 6})),
		NewRequest(FlowStream, WithStream(StreamSpec{Seed: 4, MinFactor: 0.7, Replicas: 6}),
			func(r *Request) { r.Policy = StreamPolicyAdmit }),
	}
	resps, err := e.RunBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		if resps[i].Error != "" {
			t.Fatalf("batch entry %d failed: %s", i, resps[i].Error)
		}
		req.Parallelism = 1
		serial, err := e.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if respJSON(t, resps[i]) != respJSON(t, serial) {
			t.Errorf("batch entry %d (%s) diverged from its serial run", i, req.Flow)
		}
	}
}
