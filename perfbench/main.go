// Command perfbench times thermalsched end to end through its HTTP
// service and, in a traced run, layer by layer. Each workload is a fixed
// list of requests derived from the workload seed and sent by one client,
// closed loop, as JSON POST /v1/run calls to the service handler in
// process. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload platform --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correctness, the
// request counts and the metrics (end-to-end ones with --trace 0,
// per-layer ones with --trace 1). See README.md beside this file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// setups, distinct and requests shrink a run for tests; zero keeps
	// the workload's own numbers.
	setups, distinct, requests int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary is the human-readable context of a run, printed before the
// result line.
type summary struct {
	requests, distinct int
	digest             string
	mismatches         int
	warmFailed         int
	profileOff         bool // the CPU profile missed the process CPU
	notes              []string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: platform, cosynthesis or online")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the request list is derived from it")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal run length; sizes the fixed request list")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced run and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, sum, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d requests=%d distinct=%d cycles=%d latency_samples_per_cycle=%d clients=1 loop=closed gomaxprocs=%d engine_workers=1 search_parallelism=1 digest=%s mismatches=%d warmup_failed=%d\n",
		cfg.workload, cfg.seed, sum.requests, sum.distinct, (sum.requests+sum.distinct-1)/sum.distinct, sum.distinct, runtime.GOMAXPROCS(0), sum.digest, sum.mismatches, sum.warmFailed)
	for _, n := range sum.notes {
		fmt.Println("perfbench:", n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one measurement: several set-ups (the last engine serves
// the timed pass), one untraced timed pass, and with cfg.trace a traced
// pass of the same list on a freshly set-up engine.
func run(cfg config) (*result, *summary, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	if cfg.distinct > 0 {
		w.distinct = cfg.distinct
	}
	if cfg.setups > 0 {
		w.setups = cfg.setups
	}
	l, err := buildList(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	if cfg.requests > 0 {
		l.n = cfg.requests
	}
	chk := newChecker(len(l.bodies))
	sum := &summary{requests: l.n, distinct: len(l.bodies)}

	var b *bench
	setups := make([]float64, 0, w.setups)
	for i := 0; i < w.setups; i++ {
		if b != nil {
			b.close()
		}
		nb, d, failed, err := setup(w, l, chk)
		if err != nil {
			return nil, nil, err
		}
		b = nb
		sum.warmFailed += failed
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	st := b.pass(l, chk, nil)
	heap := retainedHeap()
	b.close()

	res := &result{Attempted: l.n, Failed: st.failed}
	if !cfg.trace {
		res.Metrics = endToEnd(st, median(setups), heap, chk)
	} else {
		tm, traced, err := tracedRun(cfg, w, l, chk, st, sum)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = tm
		res.Attempted += l.n
		res.Failed += traced.failed
	}
	sum.digest = chk.digest()
	sum.mismatches = chk.mismatch
	res.Correct = res.Failed == 0 && sum.warmFailed == 0 && chk.mismatch == 0 && chk.complete() && !sum.profileOff
	return res, sum, nil
}

// endToEnd reports each timing as the median over the pass's cycles,
// so a host slowdown that spans a few cycles moves it little; every
// cycle holds the 100 distinct inputs once, so its p90 has 10 samples
// beyond it.
func endToEnd(st passStats, setupS float64, heap uint64, chk *checker) map[string]metric {
	var rps, p50, p90, cpu, alloc []float64
	for _, c := range st.cycles {
		n := float64(len(c.lat))
		lat := append([]float64(nil), c.lat...)
		sort.Float64s(lat)
		rps = append(rps, n/c.wall.Seconds())
		p50 = append(p50, rank(lat, 0.50))
		p90 = append(p90, rank(lat, 0.90))
		cpu = append(cpu, ms(c.cpu)/n)
		alloc = append(alloc, float64(c.allocB)/1024/n)
	}
	q := chk.means()
	return map[string]metric{
		"setup_s":           {setupS, "s"},
		"requests_per_s":    {median(rps), "1/s"},
		"latency_p50_ms":    {median(p50), "ms"},
		"latency_p90_ms":    {median(p90), "ms"},
		"cpu_ms_per_req":    {median(cpu), "ms"},
		"alloc_kb_per_req":  {median(alloc), "KiB"},
		"heap_retained_mb":  {float64(heap) / (1 << 20), "MiB"},
		"success_rate":      {1 - float64(st.failed)/float64(len(st.lat)), "ratio"},
		"mean_peak_temp_c":  {q.peakC, "degC"},
		"mean_avg_temp_c":   {q.avgC, "degC"},
		"deadline_met_rate": {q.deadlineMet, "ratio"},
	}
}

// tracedRun repeats the timed list on a fresh engine under a CPU profile
// and span recording, and derives the per-layer metrics.
func tracedRun(cfg config, w workload, l requestList, chk *checker, untraced passStats, sum *summary) (map[string]metric, passStats, error) {
	reqs, err := decodeAll(l.bodies)
	if err != nil {
		return nil, passStats{}, err
	}
	b, _, failed, err := setup(w, l, chk)
	if err != nil {
		return nil, passStats{}, err
	}
	defer b.close()
	sum.warmFailed += failed
	tr := newTracer(reqs)
	runtime.GC()
	before := readEngine(b.engine)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, passStats{}, err
	}
	st := b.pass(l, chk, tr)
	pprof.StopCPUProfile()
	c := readEngine(b.engine).sub(before)

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, passStats{}, err
	}
	byLayer, profNS, ticks := attribute(samples)

	n := float64(l.n)
	perReq := func(v uint64) float64 { return float64(v) / n }
	q := chk.means()
	m := map[string]metric{
		"trace.requests":       {n, "count"},
		"trace.overhead_ratio": {st.wall.Seconds() / untraced.wall.Seconds(), "ratio"},
		"trace.cpu_ms_per_req": {ms(st.cpu) / n, "ms"},
		"trace.spans_complete": {float64(tr.complete), "count"},

		"profile.samples":        {float64(ticks), "count"},
		"profile.cpu_ms_per_req": {float64(profNS) / 1e6 / n, "ms"},
		"profile.cpu_coverage":   {float64(profNS) / float64(st.cpu.Nanoseconds()), "ratio"},

		"service.decode_us":     {us(tr.decode) / float64(max(tr.complete, 1)), "us"},
		"service.validate_us":   {us(tr.validate) / float64(max(tr.complete, 1)), "us"},
		"service.encode_us":     {us(tr.encode) / float64(max(tr.complete, 1)), "us"},
		"service.response_kb":   {float64(tr.respBytes) / 1024 / n, "KiB"},
		"engine.run_ms_per_req": {ms(tr.run) / float64(max(tr.complete, 1)), "ms"},

		"engine.model_cache_hit_ratio":          {ratio(c.modelHits, c.modelHits+c.modelMisses), "ratio"},
		"engine.model_cache_lookups_per_req":    {perReq(c.modelHits + c.modelMisses), "count"},
		"hotspot.model_builds_per_req":          {perReq(c.modelMisses), "count"},
		"engine.scenario_cache_hit_ratio":       {ratio(c.scenHits, c.scenHits+c.scenMisses), "ratio"},
		"engine.scenario_cache_lookups_per_req": {perReq(c.scenHits + c.scenMisses), "count"},
		"engine.stream_cache_hit_ratio":         {ratio(c.streamHits, c.streamHits+c.streamMisses), "ratio"},
		"engine.stream_cache_lookups_per_req":   {perReq(c.streamHits + c.streamMisses), "count"},
		"search.evals_per_req":                  {perReq(c.evals), "count"},
		"search.lookups_per_req":                {perReq(c.evals + c.memoHits), "count"},
		"search.memo_hit_ratio":                 {ratio(c.memoHits, c.evals+c.memoHits), "ratio"},

		"coloop.steps_per_req":          {q.steps, "count"},
		"dtm.admission_denials_per_req": {q.denials, "count"},

		"gc.cpu_ms_per_req": {st.gcCPU * 1e3 / n, "ms"},
		"gc.cycles_per_req": {perReq(st.gcCycles), "count"},
	}
	for _, layer := range layers {
		m[layer+".cpu_ms_per_req"] = metric{float64(byLayer[layer]) / 1e6 / n, "ms"}
	}
	// The profile should account for the process CPU of the pass within
	// its sampling error.
	cov := m["profile.cpu_coverage"].Value
	tol := math.Max(0.1, 4/math.Sqrt(float64(max(ticks, 1))))
	if math.Abs(cov-1) > tol {
		sum.notes = append(sum.notes, fmt.Sprintf("CPU profile covers %.3f of the pass's process CPU, outside 1±%.3f", cov, tol))
		sum.profileOff = true
	}
	if tr.incomplete > 0 {
		sum.notes = append(sum.notes, fmt.Sprintf("%d traced requests lacked a handler boundary stamp", tr.incomplete))
	}
	return m, st, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rank is the nearest-rank percentile of sorted values.
func rank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
