// Command uniqgw fronts a fleet of uniqd nodes: every user-keyed route is
// forwarded to the node that owns the user on a consistent-hash ring, so N
// independent uniqd processes behave as one sharded service. The gateway
// health-probes the fleet, ejects nodes after consecutive failures
// (re-admitting them through probation once a probe succeeds), and
// propagates backend backpressure — 503 + Retry-After — to callers instead
// of queueing on their behalf.
//
// Usage:
//
//	uniqgw -node a=http://127.0.0.1:8081 -node b=http://127.0.0.1:8082 \
//	       [-addr :8080] [-vnodes 160] [-probe-interval 2s] [-probe-timeout 1s]
//	       [-eject-after 3] [-read-fallback 1] [-log-level info]
//	       [-log-format text] [-version]
//
// API: same surface as uniqd (sessions, jobs, profiles, AoA, render, both
// streaming routes) plus:
//
//	GET /v1/cluster/nodes   ring membership + per-node breaker/health state
//	GET /debug/metrics      gateway routing metrics (?format=json)
//	GET /healthz            gateway liveness (503 when no backend is available)
//
// Job IDs returned by the gateway are node-qualified ("<jobid>@<node>") so
// polls route back to the node that accepted the job.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// nodeFlags collects repeated -node name=url flags.
type nodeFlags []cluster.NodeSpec

func (f *nodeFlags) String() string {
	parts := make([]string, len(*f))
	for i, n := range *f {
		parts[i] = n.Name + "=" + n.BaseURL
	}
	return strings.Join(parts, ",")
}

func (f *nodeFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*f = append(*f, cluster.NodeSpec{Name: name, BaseURL: url})
	return nil
}

func main() {
	var nodes nodeFlags
	flag.Var(&nodes, "node", "backend uniqd node as name=url (repeat per node)")
	addr := flag.String("addr", ":8080", "listen address")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "health probe period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "health probe deadline")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures before a node is ejected")
	readFallback := flag.Int("read-fallback", 1, "ring successors tried when a profile read's owner fails (-1 disables)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *version {
		fmt.Println("uniqgw", buildinfo.Version())
		return
	}
	if len(nodes) == 0 {
		log.Fatal("uniqgw: at least one -node name=url is required")
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("uniqgw: %v", err)
	}
	if *logFormat != "text" && *logFormat != "json" {
		log.Fatalf("uniqgw: unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat)

	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes:         nodes,
		VNodes:        *vnodes,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		EjectAfter:    *ejectAfter,
		ReadFallback:  *readFallback,
		Logger:        logger,
	})
	if err != nil {
		log.Fatalf("uniqgw: %v", err)
	}
	log.Printf("uniqgw %s: fronting %d node(s), %d vnodes each", buildinfo.Version(), len(nodes), *vnodes)

	// Headers must arrive promptly; bodies get no read timeout, because the
	// stream routes are full-duplex for as long as a session lasts. What a
	// stalled body can pin is bounded by the body reader's presize budget.
	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("uniqgw: listening on %s", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("uniqgw: shutting down...")
	case err := <-errc:
		log.Fatalf("uniqgw: %v", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("uniqgw: http drain: %v", err)
	}
	gw.Close()
	fmt.Println("uniqgw: bye")
}
