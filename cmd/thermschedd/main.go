// Command thermschedd serves thermal-aware scheduling over HTTP/JSON:
// a thermalsched Engine behind the internal/service router.
//
// Usage:
//
//	thermschedd -addr :8080 -workers 8 -inflight 4
//
// Endpoints:
//
//	POST   /v1/run              {"flow":"platform","benchmark":"Bm1","policy":"thermal"}
//	POST   /v1/batch            [{"flow":"platform","benchmark":"Bm1"}, ...]
//	POST   /v1/jobs             submit a request asynchronously (202 + job snapshot)
//	GET    /v1/jobs/{id}        job status and, once done, the full response
//	GET    /v1/jobs/{id}/events job lifecycle as Server-Sent Events
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /metrics             Prometheus text-format counters and gauges
//	GET    /healthz
//
// Example:
//
//	curl -s localhost:8080/v1/run -d '{"flow":"platform","benchmark":"Bm1","policy":"thermal"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thermalsched"
	"thermalsched/internal/jobs"
	"thermalsched/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		parallelism = flag.Int("parallelism", 0, "engine pool size for co-synthesis search and simulate/stream replicas (0 = GOMAXPROCS; a request's parallelism overrides it)")
		inflight    = flag.Int("inflight", service.DefaultMaxInFlight, "max requests executing at once")
		maxBatch    = flag.Int("maxbatch", service.DefaultMaxBatch, "max requests per batch call")
		cache       = flag.Int("cache", thermalsched.DefaultModelCacheSize, "thermal-model cache entries (0 disables)")
		journal     = flag.String("journal", "", "async-job journal file (JSONL; empty disables persistence)")
		jobWorkers  = flag.Int("jobworkers", jobs.DefaultWorkers, "async-job evaluation workers")
		queueDepth  = flag.Int("queue", jobs.DefaultQueueDepth, "async-job queue depth before 429s")
		rate        = flag.Float64("rate", 0, "per-client job submissions per second (0 = unlimited)")
		burst       = flag.Float64("burst", 0, "per-client job submission burst (0 = rate)")
	)
	flag.Parse()

	var opts []thermalsched.Option
	if *workers > 0 {
		opts = append(opts, thermalsched.WithWorkers(*workers))
	}
	if *parallelism > 0 {
		opts = append(opts, thermalsched.WithSearchParallelism(*parallelism))
	}
	opts = append(opts, thermalsched.WithModelCacheSize(*cache))
	engine, err := thermalsched.NewEngine(opts...)
	if err != nil {
		fatal(err)
	}
	svc, err := service.New(engine, service.Config{
		MaxInFlight: *inflight,
		MaxBatch:    *maxBatch,
		Jobs: jobs.Config{
			Workers:     *jobWorkers,
			QueueDepth:  *queueDepth,
			JournalPath: *journal,
		},
		RatePerSec: *rate,
		RateBurst:  *burst,
	})
	if err != nil {
		fatal(err)
	}
	defer svc.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("thermschedd: serving on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		log.Printf("thermschedd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thermschedd:", err)
	os.Exit(1)
}
