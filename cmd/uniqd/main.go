// Command uniqd serves UNIQ HRTF personalization over HTTP: measurement
// sessions go into a bounded job queue drained by a worker pool running the
// full pipeline; completed profiles are persisted in an append-only binary
// segment store (with an in-memory LRU in front) and served to readers
// alongside AoA queries and binaural renders.
//
// Usage:
//
//	uniqd [-addr :8080] [-dir ./profiles] [-workers N] [-queue N]
//	      [-pipeline-workers N] [-job-timeout 10m] [-drain-timeout 2m]
//	      [-cache N] [-pprof]
//	      [-prior] [-prior-refresh N] [-prior-min N]
//	      [-log-level info] [-log-format text] [-version]
//
// API (see DESIGN.md for the full table):
//
//	POST /v1/sessions                 submit a session  -> 202 {jobId}
//	GET  /v1/jobs/{id}                poll a job
//	GET  /v1/profiles                 list users
//	GET  /v1/profiles/{user}          fetch a stored profile
//	POST /v1/profiles/{user}/aoa      angle-of-arrival query
//	POST /v1/profiles/{user}/render   short binaural render
//	POST /v1/stream/render/{user}     live binaural render (framed full-duplex stream)
//	POST /v1/stream/aoa/{user}        live angle-of-arrival tracking (frames in, NDJSON out)
//	GET  /debug/metrics               Prometheus text metrics (?format=json for flat JSON)
//	GET  /debug/pprof/*               profiling (only with -pprof)
//	GET  /healthz                     liveness
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener stops, in-flight
// HTTP requests and every accepted job drain (bounded by -drain-timeout),
// and completed profiles are on disk before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "./profiles", "profile store directory")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent personalization solves")
	pipelineWorkers := flag.Int("pipeline-workers", 0,
		"per-solve worker pool size (channel-estimation fan-out + fusion grid; 0 = GOMAXPROCS, <0 = sequential)")
	queue := flag.Int("queue", 64, "bounded job queue depth")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job solve deadline")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "shutdown drain deadline")
	cache := flag.Int("cache", 128, "profiles kept in the in-memory LRU")
	priorEnabled := flag.Bool("prior", true,
		"warm-start fusion solves with a population prior fitted over stored profiles")
	priorRefresh := flag.Int("prior-refresh", 16, "refit the population prior after this many new profiles")
	priorMin := flag.Int("prior-min", 3, "fewest stored profiles before the population prior is used")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *version {
		fmt.Println("uniqd", buildinfo.Version())
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("uniqd: %v", err)
	}
	if *logFormat != "text" && *logFormat != "json" {
		log.Fatalf("uniqd: unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat)

	svc, err := service.New(service.Config{
		StoreDir:          *dir,
		CacheSize:         *cache,
		Workers:           *workers,
		Pipeline:          core.PipelineOptions{Workers: *pipelineWorkers},
		QueueDepth:        *queue,
		JobTimeout:        *jobTimeout,
		PriorEnabled:      *priorEnabled,
		PriorRefreshEvery: *priorRefresh,
		PriorMinProfiles:  *priorMin,
		Logger:            logger,
	})
	if err != nil {
		log.Fatalf("uniqd: %v", err)
	}
	users, err := svc.Store().Users()
	if err != nil {
		log.Fatalf("uniqd: %v", err)
	}
	priorState := "disabled"
	if *priorEnabled {
		priorState = "cold"
		if m := svc.PriorModel(); m != nil {
			priorState = fmt.Sprintf("fitted over %d profile(s)", m.Count)
		}
	}
	log.Printf("uniqd %s: store %s holds %d profile(s); %d worker(s), queue %d; prior %s",
		buildinfo.Version(), *dir, len(users), *workers, *queue, priorState)

	handler := svc.Handler()
	if *enablePprof {
		// Mount the pprof handlers explicitly (rather than via the
		// package's DefaultServeMux side effect) in front of the API so
		// the personalization hot paths can be profiled in situ.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("uniqd: pprof enabled at /debug/pprof/")
	}
	// Headers must arrive promptly; bodies get no read timeout, because the
	// stream routes are full-duplex for as long as a session lasts. What a
	// stalled body can pin is bounded by the body reader's presize budget.
	httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("uniqd: listening on %s", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("uniqd: shutting down, draining jobs (up to %v)...", *drainTimeout)
	case err := <-errc:
		log.Fatalf("uniqd: %v", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("uniqd: http drain: %v", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("uniqd: job drain: %v", err)
	} else if errors.Is(err, context.DeadlineExceeded) {
		log.Printf("uniqd: drain deadline hit; remaining jobs canceled")
	}
	fmt.Println("uniqd: bye")
}
