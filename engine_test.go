package thermalsched

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/geom"
)

// Golden equivalence: the Engine and the uncached flow functions it
// wraps must agree bit-for-bit given the same config, so the model
// cache never changes a metric. The test names keep the deprecated
// package-level wrappers they were written against; those wrappers
// promised exactly the uncached results compared here.

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustCheckAll checks every request on e, for RunBatch.
func mustCheckAll(t *testing.T, e *Engine, reqs []Request) []*Checked {
	t.Helper()
	out, err := e.checkAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ptr returns a pointer to a copy of v, for the Request knobs whose
// nil means "unset".
func ptr[T any](v T) *T { return &v }

var benchmarkNames = []string{"Bm1", "Bm2", "Bm3", "Bm4"}

func TestEngineMatchesDeprecatedRunPlatform(t *testing.T) {
	e := testEngine(t)
	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range benchmarkNames {
		for _, policy := range Policies() {
			g, err := Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			old, err := cosynth.RunPlatform(context.Background(), g, lib, cosynth.DefaultPlatformConfig(policy))
			if err != nil {
				t.Fatalf("%s/%s uncached: %v", name, policy, err)
			}
			resp, err := e.Run(context.Background(), Request{
				Flow: FlowPlatform, Benchmark: name, Policy: policy.String(),
			})
			if err != nil {
				t.Fatalf("%s/%s engine: %v", name, policy, err)
			}
			if *resp.Metrics != old.Metrics {
				t.Errorf("%s/%s metrics diverge:\n  uncached %+v\n  engine   %+v",
					name, policy, old.Metrics, *resp.Metrics)
			}
		}
	}
}

func TestEngineMatchesDeprecatedRunCoSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("co-synthesis equivalence skipped in -short mode")
	}
	e := testEngine(t)
	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	// Reduced GA effort keeps the 4-benchmark sweep fast; equivalence
	// must hold at any effort since both sides receive the same config.
	const gens = 5
	for _, name := range benchmarkNames {
		g, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		// Seed 1 is what a request without a seed runs with.
		cfg := cosynth.DefaultCoSynthConfig(MinTaskEnergy)
		cfg.FloorplanGenerations, cfg.Seed = gens, 1
		old, err := cosynth.RunCoSynthesis(context.Background(), g, lib, cfg)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		resp, err := e.Run(context.Background(), Request{
			Flow:                 FlowCoSynthesis,
			Benchmark:            name,
			Policy:               "heuristic3",
			FloorplanGenerations: gens,
		})
		if err != nil {
			t.Fatalf("%s engine: %v", name, err)
		}
		if *resp.Metrics != old.Metrics {
			t.Errorf("%s metrics diverge:\n  uncached %+v\n  engine   %+v",
				name, old.Metrics, *resp.Metrics)
		}
	}
}

// The seed-zero contract at the request level: a cosynthesis request
// without a seed runs the GA floorplanner with seed 1, byte for byte
// the response of an explicit seed 1, while seed 0 reaches the GA as
// seed 0 — the flow run directly with Seed 0 — and not as 1.
func TestCoSynthesisSeedZeroContract(t *testing.T) {
	e := testEngine(t)
	run := func(seed *int64) *Response {
		t.Helper()
		resp, err := e.Run(context.Background(), Request{Flow: FlowCoSynthesis,
			Benchmark: "Bm1", MaxPEs: 4, FloorplanGenerations: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		resp.ElapsedMS = 0
		return resp
	}
	wire := func(resp *Response) string {
		t.Helper()
		blob, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	unset, one, zero := run(nil), run(ptr(int64(1))), run(ptr(int64(0)))
	if wire(unset) != wire(one) {
		t.Errorf("nil seed and seed 1 diverge:\n  nil %s\n  1   %s", wire(unset), wire(one))
	}
	if zero.Floorplan == one.Floorplan {
		t.Error("seed 0 ran the GA with the seed-1 floorplan")
	}

	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cosynth.DefaultCoSynthConfig(ThermalAware)
	cfg.MaxPEs, cfg.FloorplanGenerations, cfg.Seed = 4, 2, 0
	direct, err := cosynth.RunCoSynthesis(context.Background(), g, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	if err := direct.Plan.Write(&plan); err != nil {
		t.Fatal(err)
	}
	if zero.Floorplan != plan.String() || *zero.Metrics != direct.Metrics {
		t.Errorf("seed 0 diverges from the flow run with seed 0:\n  request %+v\n  direct  %+v",
			*zero.Metrics, direct.Metrics)
	}
}

// Engine.ScalingTable is the one path behind cmd/tables -scaling. On a
// fresh engine each row's generated platform costs one model-cache
// miss and no hit, and every other column except the wall-clock
// SchedMillis matches the same platform request through Run and the
// generated scenario it resolves.
func TestEngineScalingTableReportsCacheTraffic(t *testing.T) {
	e := testEngine(t)
	got, err := e.ScalingTable(context.Background(), nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 5 || got.PEs != 8 || got.Seed != 1 {
		t.Fatalf("default table: %d rows on %d PEs, seed %d; want 5 rows on 8 PEs, seed 1", len(got.Rows), got.PEs, got.Seed)
	}
	for i, g := range got.Rows {
		if g.CacheMisses != 1 || g.CacheHits != 0 {
			t.Errorf("row %d (%d tasks): hit/miss %d/%d, want 0/1", i, g.Tasks, g.CacheHits, g.CacheMisses)
		}
		spec := ScenarioSpec{
			Name:     fmt.Sprintf("scale%d", g.Tasks),
			Seed:     1 + int64(g.Tasks),
			Graph:    ScenarioGraphParams{Tasks: g.Tasks, CCR: 0.1},
			Platform: ScenarioPlatformParams{PEs: 8, MinSpeed: 0.6, MaxSpeed: 2.0},
		}
		resp, err := e.Run(context.Background(), Request{Flow: FlowPlatform, Policy: "thermal", Scenario: &spec})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := GenerateScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := resp.Metrics
		w := ScalingRow{
			Tasks: sc.Graph.NumTasks(), Edges: sc.Graph.NumEdges(), PEs: 8, Deadline: sc.Graph.Deadline,
			Makespan: m.Makespan, Feasible: m.Feasible, MaxTempC: m.MaxTemp, AvgTempC: m.AvgTemp,
			CacheMisses: 1, SchedMillis: g.SchedMillis,
		}
		if g != w {
			t.Errorf("row %d diverges:\n  table %+v\n  Run   %+v", i, g, w)
		}
	}
}

// Each scaling row counts only its own model-cache lookups: a request
// looping on another goroutine of the same Engine, whose Bm1 platform
// model hits the cache on every run, must not show up in any row.
func TestEngineScalingTableIgnoresConcurrentRequests(t *testing.T) {
	e := testEngine(t)
	req := Request{Flow: FlowPlatform, Benchmark: "Bm1", Policy: "thermal"}
	if _, err := e.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	running := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			if _, err := e.Run(context.Background(), req); err != nil {
				done <- err
				return
			}
			if i == 0 {
				close(running)
			}
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
		}
	}()
	<-running
	got, err := e.ScalingTable(context.Background(), nil, 0, 1)
	close(stop)
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Rows {
		if r.CacheHits != 0 || r.CacheMisses != 1 {
			t.Errorf("row %d (%d tasks): hit/miss %d/%d, want 0/1", i, r.Tasks, r.CacheHits, r.CacheMisses)
		}
	}
}

// RunBatch over Bm1–Bm4 must return exactly the metrics of four
// sequential Run calls, in order, while fanning out across workers.
func TestEngineRunBatchMatchesSequential(t *testing.T) {
	e, err := NewEngine(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, name := range benchmarkNames {
		reqs = append(reqs, Request{Flow: FlowPlatform, Benchmark: name, Policy: "thermal"})
	}
	batch, err := e.RunBatch(context.Background(), mustCheckAll(t, e, reqs))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d responses for %d requests", len(batch), len(reqs))
	}
	for i, req := range reqs {
		seq, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] == nil || batch[i].Error != "" {
			t.Fatalf("batch entry %d failed: %+v", i, batch[i])
		}
		if *batch[i].Metrics != *seq.Metrics {
			t.Errorf("%s batch/sequential metrics diverge:\n  batch %+v\n  seq   %+v",
				req.Benchmark, *batch[i].Metrics, *seq.Metrics)
		}
	}
}

// Cancellation mid co-synthesis must surface ctx.Err() promptly instead
// of finishing the (long) architecture search.
func TestEngineRunCancellation(t *testing.T) {
	e := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.Run(ctx, Request{
		Flow: FlowCoSynthesis, Benchmark: "Bm4", Policy: "thermal",
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled co-synthesis returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// A full Bm4 thermal co-synthesis takes tens of seconds; a prompt
	// abort is orders of magnitude faster. Generous bound for CI noise.
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

func TestEngineRequestJSONRoundTrip(t *testing.T) {
	sc, err := GenerateScenario(ScenarioSpec{Name: "wire", Seed: 5,
		Graph: ScenarioGraphParams{Tasks: 6}})
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Graph
	req := Request{
		Flow:                 FlowCoSynthesis,
		Graph:                GraphSpecOf(g),
		Policy:               "heuristic3",
		Seed:                 ptr(int64(0)), // explicit zero must survive the wire
		MaxPEs:               3,
		FloorplanGenerations: 4,
		TempWeight:           ptr(12.5),
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Request
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, decoded) {
		t.Fatalf("request round trip diverges:\n  in  %+v\n  out %+v", req, decoded)
	}
	if decoded.Seed == nil || *decoded.Seed != 0 {
		t.Fatalf("explicit zero seed lost on the wire: %+v", decoded.Seed)
	}
	g2, err := decoded.Graph.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() || g2.Deadline != g.Deadline {
		t.Errorf("graph spec round trip diverges: %d/%d/%g vs %d/%d/%g",
			g2.NumTasks(), g2.NumEdges(), g2.Deadline, g.NumTasks(), g.NumEdges(), g.Deadline)
	}

	// A response must round trip too: it is the service's wire format.
	e := testEngine(t)
	resp, err := e.Run(context.Background(), Request{Flow: FlowPlatform, Benchmark: "Bm1"})
	if err != nil {
		t.Fatal(err)
	}
	blob, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var decodedResp Response
	if err := json.Unmarshal(blob, &decodedResp); err != nil {
		t.Fatal(err)
	}
	if *decodedResp.Metrics != *resp.Metrics {
		t.Errorf("response metrics round trip diverges")
	}
}

func TestEngineModelCacheReuse(t *testing.T) {
	e := testEngine(t)
	for i := 0; i < 3; i++ {
		if _, err := e.Run(context.Background(), Request{
			Flow: FlowPlatform, Benchmark: "Bm1", Policy: "thermal",
		}); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, size := e.ModelCacheStats()
	if misses != 1 || size != 1 {
		t.Errorf("platform flow should build one model once: hits %d, misses %d, size %d",
			hits, misses, size)
	}
	if hits < 2 {
		t.Errorf("expected cache hits on repeated platform runs, got %d", hits)
	}
}

func TestEngineRequestValidation(t *testing.T) {
	e := testEngine(t)
	bad := []Request{
		{},                   // no flow
		{Flow: "warp"},       // unknown flow
		{Flow: FlowPlatform}, // no graph source
		{Flow: FlowPlatform, Benchmark: "Bm1", Graph: &GraphSpec{}}, // both sources
		{Flow: FlowPlatform, Benchmark: "Bm1", Policy: "coldest"},   // unknown policy
		{Flow: FlowPlatform, Benchmark: "Bm1", MaxPEs: -1},
		{Flow: FlowPlatform, Benchmark: "Bm1", Simulate: &SimulateSpec{}}, // simulate knobs on platform
		{Flow: "dtm", Benchmark: "Bm1"},                                   // the deleted open-loop flow
		{Flow: "sweep"},                                                   // the deleted randomized study
	}
	for i, req := range bad {
		if _, err := e.Run(context.Background(), req); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, req)
		}
	}
	if _, err := e.Run(context.Background(), Request{Flow: FlowPlatform, Benchmark: "Bm9"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestEngineGanttIncluded(t *testing.T) {
	e := testEngine(t)
	resp, err := e.Run(context.Background(), Request{
		Flow: FlowPlatform, Benchmark: "Bm1", IncludeGantt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gantt == "" {
		t.Error("requested gantt missing from response")
	}
	resp, err = e.Run(context.Background(), Request{Flow: FlowPlatform, Benchmark: "Bm1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gantt != "" {
		t.Error("unrequested gantt present in response")
	}
}

// Concurrent thermal runs share one cached model, and with it its
// lazily solved influence columns (the steady-state fast path): the
// results must match a sequential run exactly.
func TestEngineConcurrentThermalRunsShareModel(t *testing.T) {
	e := testEngine(t)
	req := Request{Flow: FlowPlatform, Benchmark: "Bm2", Policy: "thermal"}
	want, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = req
	}
	out, err := e.RunBatch(context.Background(), mustCheckAll(t, e, reqs))
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range out {
		if resp.Error != "" {
			t.Fatalf("batch entry %d failed: %s", i, resp.Error)
		}
		if !reflect.DeepEqual(resp.Metrics, want.Metrics) {
			t.Errorf("batch entry %d metrics %+v, want %+v", i, resp.Metrics, want.Metrics)
		}
	}
	if _, misses, _ := e.ModelCacheStats(); misses != 1 {
		t.Errorf("concurrent thermal runs built the model %d times, want 1", misses)
	}
}

// Every run reads the engine's one parsed copy of a benchmark, while
// Benchmark hands callers a value copy of it: eight concurrent runs on
// Bm1 answer byte-identically while a caller edits the Deadline of its
// copy, and the engine's graph keeps the paper's deadline.
func TestEngineBenchmarkCopySharedAcrossRuns(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	req := Request{Flow: FlowPlatform, Benchmark: "Bm1", Policy: "thermal"}
	first, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := respJSON(t, first)
	out := make([]*Response, 8)
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = e.Run(ctx, req)
		}()
	}
	c, err := e.Benchmark("Bm1")
	if err != nil {
		t.Fatal(err)
	}
	for d := 1.0; d <= 100; d++ {
		c.Deadline = d
	}
	wg.Wait()
	for i, resp := range out {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if respJSON(t, resp) != want {
			t.Errorf("run %d answered differently while a Benchmark copy was edited", i)
		}
	}
	if g := e.benches["Bm1"]; g.Deadline != 790 {
		t.Errorf("engine's Bm1 deadline is %g after editing a copy, want 790", g.Deadline)
	}
}

// The simulate flow is deterministic for a seeded request even though
// replicas fan out across the search pool: two runs — and a fresh
// engine — produce the identical report.
func TestEngineSimulateFlowDeterministic(t *testing.T) {
	req := Request{Flow: FlowSimulate,
		Benchmark: "Bm2",
		Policy:    "thermal",
		Simulate:  &SimulateSpec{Replicas: 8, Seed: 11, MinFactor: 0.7},
	}
	e := testEngine(t)
	a, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	c, err := testEngine(t).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Simulate, b.Simulate) {
		t.Errorf("same engine diverges:\n  %+v\n  %+v", a.Simulate, b.Simulate)
	}
	if !reflect.DeepEqual(a.Simulate, c.Simulate) {
		t.Errorf("fresh engine diverges:\n  %+v\n  %+v", a.Simulate, c.Simulate)
	}
	if a.Simulate.Replicas != 8 || a.Simulate.DeadlineMissRate < 0 {
		t.Errorf("report malformed: %+v", a.Simulate)
	}
}

// Closed-loop feedback at the engine level: a trigger below the
// schedule's steady-state peak stretches the realized makespan past the
// unthrottled ("none" controller) run's.
func TestEngineSimulateClosedLoop(t *testing.T) {
	e := testEngine(t)
	free, err := e.Run(context.Background(), Request{Flow: FlowSimulate,
		Benchmark: "Bm1", Simulate: &SimulateSpec{Controller: "none"}})
	if err != nil {
		t.Fatal(err)
	}
	throttled, err := e.Run(context.Background(), Request{Flow: FlowSimulate,
		Benchmark: "Bm1", Simulate: &SimulateSpec{Controller: "toggle", TriggerC: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if free.Simulate.ThrottleTime.Max != 0 {
		t.Errorf("controller none reported throttle time %+v", free.Simulate.ThrottleTime)
	}
	if !(throttled.Simulate.Makespan.Mean > free.Simulate.Makespan.Mean) {
		t.Errorf("throttled makespan %+v not above unthrottled %+v",
			throttled.Simulate.Makespan, free.Simulate.Makespan)
	}
	if throttled.Simulate.ThrottleTime.Min <= 0 {
		t.Errorf("trigger below peak produced no throttling: %+v", throttled.Simulate.ThrottleTime)
	}
}

// The run-time counterpart of the paper's Table 3 claim: under the
// simulate flow's default toggle controller (80 °C trigger, worst-case
// execution times, cold start) the thermal-aware schedule accumulates
// less throttle time than the power-aware (heuristic 3) schedule on at
// least 3 of the 4 paper benchmarks, and misses no extra deadlines.
func TestSimulateThermalThrottlesLess(t *testing.T) {
	e := testEngine(t)
	run := func(bm string, policy Policy) *SimulateReport {
		t.Helper()
		resp, err := e.Run(context.Background(), Request{Flow: FlowSimulate,
			Benchmark: bm, Policy: policy.String()})
		if err != nil {
			t.Fatalf("%s/%s: %v", bm, policy, err)
		}
		return resp.Simulate
	}
	wins, missDelta := 0, 0
	for _, bm := range []string{"Bm1", "Bm2", "Bm3", "Bm4"} {
		p, th := run(bm, MinTaskEnergy), run(bm, ThermalAware)
		if p.ThrottleTime.Mean <= 0 {
			t.Errorf("%s: power-aware schedule never throttled — trigger miscalibrated", bm)
		}
		if p.Makespan.Mean <= 0 || th.Makespan.Mean <= 0 {
			t.Errorf("%s: degenerate makespans %+v %+v", bm, p.Makespan, th.Makespan)
		}
		if th.ThrottleTime.Mean < p.ThrottleTime.Mean {
			wins++
		}
		if p.DeadlineMissRate > 0 {
			missDelta++
		}
		if th.DeadlineMissRate > 0 {
			missDelta--
		}
		t.Logf("%s: throttle power-aware %.1f thermal-aware %.1f", bm, p.ThrottleTime.Mean, th.ThrottleTime.Mean)
	}
	if wins < 3 {
		t.Errorf("thermal-aware throttles less on only %d/4 benchmarks", wins)
	}
	if missDelta < 0 {
		t.Errorf("thermal-aware misses %d more deadlines than power-aware", -missDelta)
	}
}

func TestEngineSimulateRequestValidation(t *testing.T) {
	e := testEngine(t)
	bad := []Request{
		{Flow: FlowPlatform, Benchmark: "Bm1", Simulate: &SimulateSpec{}}, // simulate knobs on platform
		{Flow: FlowSimulate, Benchmark: "Bm1", Simulate: &SimulateSpec{Controller: "bangbang"}},
		{Flow: FlowSimulate, Benchmark: "Bm1", Simulate: &SimulateSpec{Replicas: -1}},
		{Flow: FlowSimulate, Benchmark: "Bm1", Simulate: &SimulateSpec{MinFactor: 2}},
		{Flow: FlowSimulate, Benchmark: "Bm1", Simulate: &SimulateSpec{DT: -1}},
	}
	for i, req := range bad {
		if _, err := e.Run(context.Background(), req); err == nil {
			t.Errorf("bad simulate request %d accepted: %+v", i, req)
		}
	}
}

// modelKey must key on every Config field: perturbing any one of them
// yields a distinct cache key, and equal inputs yield equal keys.
func TestModelKeyDistinctConfigs(t *testing.T) {
	fp, err := floorplan.Row("pe", 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultThermalConfig()
	k0 := modelKey(fp, base)
	if k0 != modelKey(fp, base) {
		t.Fatal("equal inputs produced different keys")
	}
	rv := reflect.TypeOf(base)
	for i := 0; i < rv.NumField(); i++ {
		cfg := base
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		f.SetFloat(f.Float()*1.5 + 1)
		if modelKey(fp, cfg) == k0 {
			t.Errorf("perturbing Config.%s did not change the model key", rv.Field(i).Name)
		}
	}
	fp2, err := floorplan.Row("pe", 3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if modelKey(fp2, base) == k0 {
		t.Error("distinct floorplans share a model key")
	}

	// The key holds every block's exact geometry and name: a one-ulp
	// move, a rename and a name swap each change it, and so does a name
	// split that would concatenate to the same bytes without the length
	// prefixes.
	plan := func(t *testing.T, blocks ...floorplan.Placed) *floorplan.Floorplan {
		t.Helper()
		fp := floorplan.New()
		for _, b := range blocks {
			if err := fp.AddBlock(b.Name, b.Rect); err != nil {
				t.Fatal(err)
			}
		}
		return fp
	}
	ra, rb := geom.NewRect(0, 0, 1e-3, 1e-3), geom.NewRect(1e-3, 0, 1e-3, 1e-3)
	ref := modelKey(plan(t, floorplan.Placed{Name: "a", Rect: ra}, floorplan.Placed{Name: "b", Rect: rb}), base)
	for i := 0; i < 4; i++ {
		r := rb
		c := [...]*float64{&r.X, &r.Y, &r.W, &r.H}[i]
		*c = math.Nextafter(*c, math.Inf(1))
		if modelKey(plan(t, floorplan.Placed{Name: "a", Rect: ra}, floorplan.Placed{Name: "b", Rect: r}), base) == ref {
			t.Errorf("moving coordinate %d of a block one ulp did not change the model key", i)
		}
	}
	variants := map[string]*floorplan.Floorplan{
		"rename": plan(t, floorplan.Placed{Name: "a", Rect: ra}, floorplan.Placed{Name: "c", Rect: rb}),
		"swap":   plan(t, floorplan.Placed{Name: "b", Rect: ra}, floorplan.Placed{Name: "a", Rect: rb}),
	}
	for name, v := range variants {
		if modelKey(v, base) == ref {
			t.Errorf("%s: model key unchanged", name)
		}
	}
	// Without length prefixes, "a" + bits(ra) + "b" + bits(rb) equals one
	// block named "a" + bits(ra) + "b" placed at rb.
	var glued []byte
	glued = append(glued, 'a')
	for _, v := range [...]float64{ra.X, ra.Y, ra.W, ra.H} {
		glued = binary.LittleEndian.AppendUint64(glued, math.Float64bits(v))
	}
	glued = append(glued, 'b')
	if modelKey(plan(t, floorplan.Placed{Name: string(glued), Rect: rb}), base) == ref {
		t.Error("block names glued across a rectangle share a model key")
	}
}

func TestSimulateReplicaCap(t *testing.T) {
	e := testEngine(t)
	_, err := e.Run(context.Background(), Request{Flow: FlowSimulate,
		Benchmark: "Bm1",
		Simulate:  &SimulateSpec{Replicas: MaxSimulateReplicas + 1}})
	if err == nil {
		t.Fatal("over-limit replica count accepted")
	}
}
