package thermalsched

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/experiments"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/geom"
	"thermalsched/internal/hotspot"
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
			old, err := cosynth.RunPlatform(context.Background(), g, lib, PlatformConfig{Policy: policy})
			if err != nil {
				t.Fatalf("%s/%s uncached: %v", name, policy, err)
			}
			resp, err := e.Run(context.Background(), NewRequest(
				FlowPlatform, WithBenchmark(name), WithPolicy(policy),
			))
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
		old, err := cosynth.RunCoSynthesis(context.Background(), g, lib, CoSynthConfig{
			Policy: MinTaskEnergy, FloorplanGenerations: gens,
		})
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		resp, err := e.Run(context.Background(), NewRequest(
			FlowCoSynthesis,
			WithBenchmark(name),
			WithPolicy(MinTaskEnergy),
			WithFloorplanGenerations(gens),
		))
		if err != nil {
			t.Fatalf("%s engine: %v", name, err)
		}
		if *resp.Metrics != old.Metrics {
			t.Errorf("%s metrics diverge:\n  uncached %+v\n  engine   %+v",
				name, old.Metrics, *resp.Metrics)
		}
	}
}

func TestEngineMatchesDeprecatedRunSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep equivalence skipped in -short mode")
	}
	e := testEngine(t)
	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	old, err := experiments.RunSweep(context.Background(), lib, 3, 7, PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Run(context.Background(), NewRequest(
		FlowSweep, WithSweepCount(3), WithSeed(7),
	))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, resp.Sweep) {
		t.Errorf("sweep diverges:\n  uncached %+v\n  engine   %+v", old, resp.Sweep)
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
		reqs = append(reqs, NewRequest(FlowPlatform, WithBenchmark(name), WithPolicy(ThermalAware)))
	}
	batch, err := e.RunBatch(context.Background(), reqs)
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
	_, err := e.Run(ctx, NewRequest(
		FlowCoSynthesis, WithBenchmark("Bm4"), WithPolicy(ThermalAware),
	))
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
	g, err := GenerateGraph(GenParams{
		Name: "wire", Tasks: 6, Edges: 6, Deadline: 900,
		Types: 8, Sources: 1, MaxData: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(
		FlowCoSynthesis,
		WithGraph(g),
		WithPolicy(MinTaskEnergy),
		WithSeed(0), // explicit zero must survive the wire
		WithMaxPEs(3),
		WithFloorplanGenerations(4),
		WithTempWeight(12.5),
	)
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
	resp, err := e.Run(context.Background(), NewRequest(FlowPlatform, WithBenchmark("Bm1")))
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
		if _, err := e.Run(context.Background(), NewRequest(
			FlowPlatform, WithBenchmark("Bm1"), WithPolicy(ThermalAware),
		)); err != nil {
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
		{Flow: FlowSweep, Benchmark: "Bm1"},                         // sweep with input graph
		{Flow: FlowPlatform, Benchmark: "Bm1", MaxPEs: -1},
		{Flow: FlowPlatform, Benchmark: "Bm1", Simulate: &SimulateSpec{}}, // simulate knobs on platform
		{Flow: "dtm", Benchmark: "Bm1"},                                   // the deleted open-loop flow
	}
	for i, req := range bad {
		if _, err := e.Run(context.Background(), req); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, req)
		}
	}
	if _, err := e.Run(context.Background(), NewRequest(FlowPlatform, WithBenchmark("Bm9"))); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestEngineGanttIncluded(t *testing.T) {
	e := testEngine(t)
	resp, err := e.Run(context.Background(), NewRequest(
		FlowPlatform, WithBenchmark("Bm1"), WithGantt(),
	))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gantt == "" {
		t.Error("requested gantt missing from response")
	}
	resp, err = e.Run(context.Background(), NewRequest(FlowPlatform, WithBenchmark("Bm1")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gantt != "" {
		t.Error("unrequested gantt present in response")
	}
}

// Concurrent thermal runs share one cached model, and with it one
// lazily-built influence matrix (the steady-state fast path): the
// results must match a sequential run exactly.
func TestEngineConcurrentThermalRunsShareModel(t *testing.T) {
	e := testEngine(t)
	req := NewRequest(FlowPlatform, WithBenchmark("Bm2"), WithPolicy(ThermalAware))
	want, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = req
	}
	out, err := e.RunBatch(context.Background(), reqs)
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

// The simulate flow is deterministic for a seeded request even though
// replicas fan out across the search pool: two runs — and a fresh
// engine — produce the identical report.
func TestEngineSimulateFlowDeterministic(t *testing.T) {
	req := NewRequest(FlowSimulate,
		WithBenchmark("Bm2"),
		WithPolicy(ThermalAware),
		WithSimulate(SimulateSpec{Replicas: 8, Seed: 11, MinFactor: 0.7}),
	)
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
	free, err := e.Run(context.Background(), NewRequest(FlowSimulate,
		WithBenchmark("Bm1"), WithSimulate(SimulateSpec{Controller: "none"})))
	if err != nil {
		t.Fatal(err)
	}
	throttled, err := e.Run(context.Background(), NewRequest(FlowSimulate,
		WithBenchmark("Bm1"), WithSimulate(SimulateSpec{Controller: "toggle", TriggerC: 60})))
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
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			f.SetFloat(f.Float()*1.5 + 1)
		}
		if modelKey(fp, cfg) == k0 {
			t.Errorf("perturbing Config.%s did not change the model key", rv.Field(i).Name)
		}
	}
	// "" and the explicit default spelling build identical models and
	// must share one cache entry.
	dense := base
	dense.Solver = hotspot.SolverDense
	if modelKey(fp, dense) != k0 {
		t.Error(`Solver "" and "dense" should share a model key`)
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
	// The same at the solver/first-block boundary: "dense"+"ab" against
	// "densea"+"b".
	split := base
	split.Solver = hotspot.SolverDense + "a"
	if modelKey(plan(t, floorplan.Placed{Name: "b", Rect: ra}), split) ==
		modelKey(plan(t, floorplan.Placed{Name: "ab", Rect: ra}), dense) {
		t.Error("solver and block names split differently share a model key")
	}
}

func TestSimulateReplicaCap(t *testing.T) {
	e := testEngine(t)
	_, err := e.Run(context.Background(), NewRequest(FlowSimulate,
		WithBenchmark("Bm1"),
		WithSimulate(SimulateSpec{Replicas: MaxSimulateReplicas + 1})))
	if err == nil {
		t.Fatal("over-limit replica count accepted")
	}
}
