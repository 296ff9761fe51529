// Command lplserve runs the L(p)-labeling solver as a long-lived HTTP
// service: many clients share one planner pipeline, one solver worker
// pool, and one memoization cache, so repeated instances across users are
// served from memory.
//
// Usage:
//
//	lplserve -addr :8080 -workers 4 -queue 256 -max-deadline 30s
//
// Endpoints (see the README for the wire format):
//
//	POST /v1/solve   solve one instance, JSON in / JSON out (also accepts
//	                 the binary graph frame, Content-Type
//	                 application/x-lpl-graph, with a JSON envelope after it)
//	POST /v1/batch   solve many instances, NDJSON streamed back in
//	                 completion order
//	POST /v1/graphs  intern a graph once; solves may then send its
//	                 graphRef instead of the full graph (-graph-store
//	                 bounds the store)
//	GET  /v1/stats   queue, admission, cache, intern-store, per-method,
//	                 and fault-containment counters
//	GET  /healthz    liveness (is the process alive)
//	GET  /readyz     readiness (should this instance receive traffic);
//	                 503 while the queue is saturated or quarantine trips
//	                 are elevated
//
// Overload is answered with 429 + a Retry-After computed from the queue's
// observed drain rate; per-request deadlines are clamped to -max-deadline;
// a client hanging up cancels its solve at the engines' cooperative
// checkpoints. Faults are contained, not fatal: engine panics come back
// as 500 with code "enginePanic", solves that ignore cancellation are
// force-failed by the watchdog once they overrun -watchdog-grace × their
// deadline (408, code "stuckSolve"), and an instance that keeps crashing
// or wedging is quarantined after -quarantine failures (422, code
// "quarantined") until -quarantine-ttl elapses.
//
// Cluster node mode (see the README's "Scaling out"; cmd/lplrouter is
// the router that fronts such nodes):
//
//	lplserve -self b0 -peers b0=http://...,b1=http://...
//	    run as one node of a peer-filled cluster: the server's solve
//	    cache gets the other members installed as an L2, so an L1 miss
//	    on a graph another node owns is forwarded there instead of
//	    solved twice
//
// The ring hashes member NAMES with -seed and -vnodes; every process in
// one cluster must agree on all three. -pprof exposes
// net/http/pprof under /debug/pprof/ (off by default).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lpltsp"
	"lpltsp/internal/cluster"
	"lpltsp/internal/core"
)

func main() {
	srv, logger, err := buildServer(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "lplserve:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Printf("listening on %s", srv.Addr)

	select {
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
		logger.Printf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Fatalf("shutdown: %v", err)
		}
	}
}

// buildServer parses flags and assembles the HTTP server. Split from main
// so tests can exercise flag handling and the handler without binding a
// socket.
func buildServer(args []string, errOut io.Writer) (*http.Server, *log.Logger, error) {
	fs := flag.NewFlagSet("lplserve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr            = fs.String("addr", ":8080", "listen address")
		workers         = fs.Int("workers", 0, "concurrent solves (0 = half the CPUs; each solve parallelizes internally)")
		queue           = fs.Int("queue", 256, "admission queue depth: jobs in the system before requests get 429")
		maxDeadline     = fs.Duration("max-deadline", 30*time.Second, "clamp per-request deadlines to this (0 = unlimited)")
		defaultDeadline = fs.Duration("default-deadline", 0, "deadline applied to requests that carry none (0 = none)")
		maxVertices     = fs.Int("max-vertices", 4096, "reject larger instances with 413")
		sched           = fs.String("sched", "edf", "admission scheduling policy: edf (earliest deadline first) or fifo")
		tenantQuota     = fs.Float64("tenant-quota", 0, "max fraction of the queue one named tenant may hold (0 = default 0.5, negative = unlimited)")
		cacheCap        = fs.Int("cache-capacity", 0, "this server's solve-cache entries (0 = default)")
		graphStore      = fs.Int("graph-store", 0, "graph intern store capacity behind /v1/graphs (0 = default, negative = disabled)")
		quarantine      = fs.Int("quarantine", 0, "quarantine an instance after this many containment failures (0 = default 3, negative = disabled)")
		quarantineTTL   = fs.Duration("quarantine-ttl", 0, "quarantine sentence length and failure-memory window (0 = default 5m)")
		watchdogGrace   = fs.Float64("watchdog-grace", 3, "force-fail solves still running at this multiple of their deadline (0 = watchdog disabled)")
		peerSpec        = fs.String("peers", "", "cluster node mode: every ring member as name=url, including this node")
		self            = fs.String("self", "", "cluster node mode: this node's ring member name (required with -peers)")
		vnodes          = fs.Int("vnodes", 0, "virtual nodes per ring member (0 = default); must match across the cluster")
		ringSeed        = fs.Uint64("seed", 0, "ring placement seed; must match across the cluster")
		pprofFlag       = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		breakerThreshold = fs.Int("breaker-threshold", 5, "peers mode: consecutive transport/gateway failures that open a circuit")
		breakerCooldown  = fs.Duration("breaker-cooldown", 2*time.Second, "peers mode: open-circuit hold before a half-open probe")
		fillTimeout      = fs.Duration("fill-timeout", cluster.DefaultFillTimeout, "peers mode: bound on one peer-fill consult (0 = caller's deadline only)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	logger := log.New(errOut, "lplserve: ", log.LstdFlags)

	cfg := &lpltsp.ServeConfig{
		Workers:             *workers,
		QueueDepth:          *queue,
		MaxDeadline:         *maxDeadline,
		DefaultDeadline:     *defaultDeadline,
		MaxVertices:         *maxVertices,
		Sched:               *sched,
		TenantQuota:         *tenantQuota,
		GraphStoreCapacity:  *graphStore,
		QuarantineThreshold: *quarantine,
		QuarantineTTL:       *quarantineTTL,
		WatchdogGrace:       *watchdogGrace,
	}
	capacity := core.DefaultCacheCapacity
	if *cacheCap > 0 {
		capacity = *cacheCap
	}
	cfg.Cache = core.NewSolveCache(capacity)
	switch {
	case *peerSpec != "":
		// Cluster node: the peers are the cache's L2, so misses on graphs
		// another node owns are filled from there.
		if *self == "" {
			return nil, nil, fmt.Errorf("-peers requires -self (this node's ring member name)")
		}
		peers, err := cluster.ParseBackends(*peerSpec)
		if err != nil {
			return nil, nil, err
		}
		member := false
		for _, p := range peers {
			if p.Name == *self {
				member = true
				break
			}
		}
		if !member {
			return nil, nil, fmt.Errorf("-self %q is not among the -peers names (every node lists the full membership, itself included)", *self)
		}
		pf, err := cluster.NewPeerFill(*self, peers, cluster.RingConfig{VNodes: *vnodes, Seed: *ringSeed})
		if err != nil {
			return nil, nil, err
		}
		pf.SetBreakers(cluster.NewBreakerSet(cluster.BreakerConfig{
			Threshold: *breakerThreshold,
			Cooldown:  *breakerCooldown,
		}))
		pf.SetFillTimeout(*fillTimeout)
		cfg.Cache.SetL2(pf)
	case *self != "":
		return nil, nil, fmt.Errorf("-self requires -peers")
	}
	handler := lpltsp.NewServeHandler(cfg)
	if *pprofFlag {
		handler = cluster.WithPprof(handler)
	}
	return &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}, logger, nil
}
