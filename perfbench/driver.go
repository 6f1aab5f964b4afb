package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"thermalsched"
	"thermalsched/internal/service"
)

// bench is one engine behind the service's HTTP handler, driven in
// process: requests go through ServeHTTP, never through a socket.
type bench struct {
	engine  *thermalsched.Engine
	svc     *service.Service
	handler http.Handler
}

// newBench pins the engine's parallelism: one RunBatch worker and one
// search token, so a request's cost does not depend on idle cores.
func newBench() (*bench, error) {
	e, err := thermalsched.NewEngine(thermalsched.WithWorkers(1), thermalsched.WithSearchParallelism(1))
	if err != nil {
		return nil, err
	}
	svc, err := service.New(e, service.Config{})
	if err != nil {
		return nil, err
	}
	return &bench{engine: e, svc: svc, handler: svc.Handler()}, nil
}

func (b *bench) close() {
	if err := b.svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing service:", err)
	}
}

// input is one distinct request with everything the client needs to send
// it, built before any timing: the *http.Request, its body reader and the
// response recorder are reused on every send, so the timed loop allocates
// nothing of the client's own.
type input struct {
	data   []byte
	req    *http.Request
	body   reqBody
	rec    recorder
	sentAt time.Time // when the last send started
}

func newInputs(bodies [][]byte, traced bool) []*input {
	ins := make([]*input, len(bodies))
	for i, data := range bodies {
		in := &input{data: data, req: httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(data))}
		in.body.traced, in.rec.traced = traced, traced
		in.rec.header = make(http.Header)
		ins[i] = in
	}
	return ins
}

// reqBody is a reusable request body. In a traced pass it stamps the
// first read that reports EOF: the service's JSON decoder reaches it when
// it checks for trailing data, right after decoding the request.
type reqBody struct {
	r      bytes.Reader
	traced bool
	eofAt  time.Time
}

func (b *reqBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF && b.traced && b.eofAt.IsZero() {
		b.eofAt = time.Now()
	}
	return n, err
}

func (b *reqBody) Close() error { return nil }

// recorder is a reusable in-memory http.ResponseWriter. In a traced pass
// it also stamps the handler's boundaries that are visible from outside:
// WriteHeader follows Engine.Run, the single Write ends the encoding.
type recorder struct {
	header            http.Header
	status            int
	body              bytes.Buffer
	traced            bool
	headerAt, writeAt time.Time
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) {
	if r.status != 0 {
		return
	}
	r.status = status
	if r.traced {
		r.headerAt = time.Now()
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.WriteHeader(http.StatusOK)
	}
	if r.traced && r.writeAt.IsZero() {
		r.writeAt = time.Now()
	}
	return r.body.Write(p)
}

// send posts one input to /v1/run through the handler; the response
// stays in in.rec until the next send of the same input.
func (b *bench) send(in *input) {
	clear(in.rec.header)
	in.rec.status = 0
	in.rec.body.Reset()
	in.rec.headerAt, in.rec.writeAt = time.Time{}, time.Time{}
	in.body.r.Reset(in.data)
	in.body.eofAt = time.Time{}
	in.req.Body = &in.body
	b.handler.ServeHTTP(&in.rec, in.req)
}

// setup builds a fresh engine and warms it up, checking every warm-up
// response. It returns the engine, the set-up wall time and the number
// of warm-up requests that failed.
func setup(w workload, l requestList, chk *checker) (*bench, time.Duration, int, error) {
	start := time.Now()
	b, err := newBench()
	if err != nil {
		return nil, 0, 0, err
	}
	failed := 0
	if w.warmAll {
		for d, in := range newInputs(l.bodies, false) {
			b.send(in)
			if !chk.check(d, in.rec.status, in.rec.body.Bytes()) {
				failed++
			}
		}
	}
	for _, in := range newInputs(l.warmup, false) {
		b.send(in)
		if _, err := inspect(in.rec.body.Bytes()); in.rec.status != http.StatusOK || err != nil {
			failed++
		}
	}
	return b, time.Since(start), failed, nil
}

// passStats is what one timed pass over the request list measured, in
// total and per cycle (one round over the distinct inputs).
type passStats struct {
	lat      []float64 // per-request latency, ms, in list order
	cycles   []cycleStats
	wall     time.Duration // summed over the cycles: sending only
	cpu      time.Duration // process user+sys CPU of the whole pass, checks included
	gcCPU    float64       // seconds, runtime/metrics estimate
	gcCycles uint64
	failed   int
}

type cycleStats struct {
	lat    []float64 // this cycle's part of passStats.lat
	wall   time.Duration
	cpu    time.Duration
	allocB uint64
}

// pass sends the timed list once, closed loop, one cycle over the
// distinct inputs at a time. A cycle's clocks cover only the sends; its
// responses are checked (and, with a tracer, their spans recorded) after
// the cycle's clocks are read.
func (b *bench) pass(l requestList, chk *checker, tr *tracer) passStats {
	st := passStats{lat: make([]float64, l.n)}
	ins := newInputs(l.bodies, tr != nil)
	first := readRuntime()
	cpuStart := cpuTime()
	for i := 0; i < l.n; i += len(ins) {
		cyc := ins[:min(len(ins), l.n-i)]
		lat := st.lat[i : i+len(cyc)]
		c0, cpu0, alloc0 := time.Now(), cpuTime(), readRuntime().allocB
		for d, in := range cyc {
			in.sentAt = time.Now()
			b.send(in)
			lat[d] = float64(time.Since(in.sentAt)) / float64(time.Millisecond)
		}
		c := cycleStats{lat: lat, wall: time.Since(c0), cpu: cpuTime() - cpu0, allocB: readRuntime().allocB - alloc0}
		st.cycles = append(st.cycles, c)
		st.wall += c.wall
		for d, in := range cyc {
			if tr != nil {
				tr.record(d, in)
			}
			if !chk.check(d, in.rec.status, in.rec.body.Bytes()) {
				st.failed++
			}
		}
	}
	st.cpu = cpuTime() - cpuStart
	last := readRuntime()
	st.gcCPU = last.gcCPU - first.gcCPU
	st.gcCycles = last.gcCycles - first.gcCycles
	return st
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeCounters struct {
	allocB, gcCycles, liveB uint64
	gcCPU                   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	var s [4]metrics.Sample
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return runtimeCounters{
		allocB:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		liveB:    s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
	}
}

// retainedHeap is the live heap after a full collection.
func retainedHeap() uint64 {
	runtime.GC()
	return readRuntime().liveB
}

// decodeAll decodes the distinct bodies once, for the validate spans.
func decodeAll(bodies [][]byte) ([]thermalsched.Request, error) {
	out := make([]thermalsched.Request, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal(b, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
