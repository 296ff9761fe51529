// Command lplrouter fronts a cluster of lplserve backends with
// consistent-hash graph routing: every /v1/solve, /v1/batch item,
// /v1/graphs intern, and HEAD /v1/graphs/{ref} probe is forwarded to
// the backend that owns the instance's graph fingerprint on the ring,
// so each instance's solve cache, intern store, and singleflight state
// live on exactly one node.
//
// Usage:
//
//	lplrouter -addr :8090 -backends b0=http://10.0.0.1:8080,b1=http://10.0.0.2:8080
//
// Backend NAMES (not URLs) are what the ring hashes, and -seed feeds
// the placement hash: every process in the cluster — this router, any
// peer router, and each lplserve started with -peers — must be given
// the same name set, -vnodes, and -seed, or they will disagree about
// which node owns which graph.
//
// Backend semantics pass through untouched (a backend's 429/408/422 is
// the client's 429/408/422); a backend that is unreachable at the
// transport level (or answering gateway-class 502/503/504) fails
// idempotent requests over to the next distinct ring node, bounded by
// -retry-attempts, -attempt-timeout, and the SRE-style -retry-budget.
// An active health prober (-probe-interval) ejects backends from the
// ring after -probe-fail consecutive failed /readyz probes and restores
// them after -probe-recover successes; per-backend circuit breakers
// (-breaker-threshold, -breaker-cooldown) skip a sick backend without
// touching the wire; -hedge arms tail-latency hedged sends for
// full-body solves (a graphRef resolves only at its owner, so graphRef
// solves are never hedged). GET /v1/stats serves the router's own
// counters (including breaker and health blocks); /readyz aggregates
// backend readiness (from the probe snapshot when the prober is on).
// -pprof exposes net/http/pprof (off by default).
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

	"lpltsp/internal/cluster"
)

func main() {
	srv, rt, logger, err := buildRouter(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "lplrouter:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP restores the boot-time ring membership — the counterpart of
	// a POST /admin/ring drain (that endpoint is loopback-only).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := rt.ResetRing(); err != nil {
				logger.Printf("SIGHUP ring reset: %v", err)
				continue
			}
			logger.Printf("SIGHUP: ring membership reset to %v", rt.Ring().Members())
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Printf("routing on %s", srv.Addr)

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

// buildRouter parses flags and assembles the HTTP server. Split from
// main so tests can exercise flag handling and the handler without
// binding a socket. The router is returned alongside the server so the
// SIGHUP handler can reset its ring.
func buildRouter(args []string, errOut io.Writer) (*http.Server, *cluster.Router, *log.Logger, error) {
	fs := flag.NewFlagSet("lplrouter", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr     = fs.String("addr", ":8090", "listen address")
		backends = fs.String("backends", "", "comma-separated name=url backends (names are the ring members)")
		vnodes   = fs.Int("vnodes", 0, "virtual nodes per ring member (0 = default)")
		seed     = fs.Uint64("seed", 0, "ring placement seed; must match across the cluster")
		pprof    = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		probeInterval = fs.Duration("probe-interval", time.Second, "health prober tick; 0 disables active probing (readyz then probes per request)")
		probeTimeout  = fs.Duration("probe-timeout", 0, "per-member probe bound (0 = interval/4, floored at 50ms)")
		probeFail     = fs.Int("probe-fail", 3, "consecutive failed probes that eject a backend from the ring")
		probeRecover  = fs.Int("probe-recover", 2, "consecutive successful probes that return an ejected backend")

		breakerThreshold = fs.Int("breaker-threshold", 5, "consecutive transport/gateway failures that open a backend's circuit")
		breakerCooldown  = fs.Duration("breaker-cooldown", 2*time.Second, "open-circuit hold before a half-open probe")

		retryAttempts  = fs.Int("retry-attempts", 3, "max backends tried per idempotent request (1 = owner only, never retry)")
		attemptTimeout = fs.Duration("attempt-timeout", 0, "per-attempt bound on one backend try (0 = request deadline only)")
		retryBudget    = fs.Float64("retry-budget", 0.1, "retry tokens deposited per request (SRE retry budget ratio)")

		hedge      = fs.Bool("hedge", false, "arm hedged sends for full-body solves (graphRef solves are never hedged: only the ref's owner can answer them)")
		hedgeDelay = fs.Duration("hedge-delay", 0, "hedge fire delay (0 = adaptive p95 of observed solve latency)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, nil, nil, err
	}
	if fs.NArg() > 0 {
		return nil, nil, nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	bs, err := cluster.ParseBackends(*backends)
	if err != nil {
		return nil, nil, nil, err
	}
	rt, err := cluster.NewRouter(bs, cluster.RingConfig{VNodes: *vnodes, Seed: *seed})
	if err != nil {
		return nil, nil, nil, err
	}
	rt.ConfigureBreakers(cluster.BreakerConfig{Threshold: *breakerThreshold, Cooldown: *breakerCooldown})
	rt.ConfigureRetry(cluster.RetryPolicy{
		MaxAttempts:    *retryAttempts,
		AttemptTimeout: *attemptTimeout,
		BudgetRatio:    *retryBudget,
	})
	if *hedge {
		rt.EnableHedge(*hedgeDelay)
	}
	if *probeInterval > 0 {
		cluster.NewProber(rt, cluster.ProbeConfig{
			Interval:         *probeInterval,
			Timeout:          *probeTimeout,
			FailThreshold:    *probeFail,
			RecoverThreshold: *probeRecover,
			Seed:             *seed,
		}).Start()
	}
	var handler http.Handler = rt
	if *pprof {
		handler = cluster.WithPprof(handler)
	}
	logger := log.New(errOut, "lplrouter: ", log.LstdFlags)
	return &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}, rt, logger, nil
}
