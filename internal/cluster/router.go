package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/service"
)

// Router is the graphRef-affine front door of a cluster: it computes
// each request's graph fingerprint, maps it through the ring to the
// owning backend, and proxies the request there verbatim — so one
// graph's interned body, cache entries, and singleflight state all
// accumulate on a single node. Backend semantics pass through
// untouched: a 429 (admission full), 408 (deadline), or 422 (method
// not applicable) from the owner is the client's answer. Only a
// transport failure — the backend is dead, not busy — moves an
// idempotent request to the next distinct ring node.
//
// Endpoints: POST /v1/solve and /v1/graphs and HEAD /v1/graphs/{ref}
// route by fingerprint (with dead-backend retry); POST /v1/batch is
// split into per-owner sub-batches whose NDJSON streams are merged
// (ids correlate lines, exactly as on a single node); GET /v1/stats
// reports the router's own counters; /healthz is the router's
// liveness and /readyz aggregates the backends'.
type Router struct {
	ring     atomic.Pointer[Ring]
	backends map[string]Backend
	mux      *http.ServeMux
	maxBody  int64
	// fullCfg is the resolved boot-time ring config so ResetRing can
	// restore the as-built membership after admin-driven drains.
	fullCfg RingConfig

	ringSwaps atomic.Int64

	// breakers is the per-backend fail-fast layer; never nil. prober is
	// the optional active health prober (NewProber installs it).
	breakers *BreakerSet
	prober   atomic.Pointer[Prober]
	// retry bundles the successor-walk policy with its token budget so
	// ConfigureRetry can swap both atomically under traffic.
	retry atomic.Pointer[retryState]
	lat   *latencyTracker
	// hedgeOn arms hedged sends for full-body solves; hedgeDelayNs is
	// the fixed hedge delay (0 = adaptive p95 from lat).
	hedgeOn      atomic.Bool
	hedgeDelayNs atomic.Int64

	proxied      atomic.Int64
	retries      atomic.Int64
	deadBackends atomic.Int64
	splitBatches atomic.Int64
	// perBackend counts completed round trips per member; sends counts
	// attempts that reached the transport (including ones that then
	// failed or timed out) — the drain invariant "an ejected backend
	// receives zero traffic" is a statement about sends.
	perBackend map[string]*atomic.Int64
	sends      map[string]*atomic.Int64

	hedged          atomic.Int64
	hedgeWins       atomic.Int64
	budgetExhausted atomic.Int64
	attemptTimeouts atomic.Int64
}

const defaultRouterMaxBody = 64 << 20

// NewRouter builds a router over the given backends. cfg.Members
// defaults to the backend names in the given order; naming a member
// with no matching backend is an error (the ring would assign keys to
// a node the router cannot reach).
func NewRouter(backends []Backend, cfg RingConfig) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one backend")
	}
	byName := make(map[string]Backend, len(backends))
	names := make([]string, len(backends))
	for i, b := range backends {
		if _, dup := byName[b.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b.Name)
		}
		byName[b.Name] = b
		names[i] = b.Name
	}
	if len(cfg.Members) == 0 {
		cfg.Members = names
	}
	for _, m := range cfg.Members {
		if _, ok := byName[m]; !ok {
			return nil, fmt.Errorf("cluster: ring member %q has no backend", m)
		}
	}
	ring, err := NewRing(cfg)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		backends:   byName,
		mux:        http.NewServeMux(),
		maxBody:    defaultRouterMaxBody,
		fullCfg:    cfg,
		breakers:   NewBreakerSet(BreakerConfig{}),
		lat:        newLatencyTracker(),
		perBackend: make(map[string]*atomic.Int64, len(backends)),
		sends:      make(map[string]*atomic.Int64, len(backends)),
	}
	pol := RetryPolicy{}.withDefaults()
	rt.retry.Store(&retryState{pol: pol, budget: newRetryBudget(pol.BudgetRatio)})
	for _, b := range backends {
		rt.perBackend[b.Name] = new(atomic.Int64)
		rt.sends[b.Name] = new(atomic.Int64)
	}
	rt.ring.Store(ring)
	rt.mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("POST /v1/graphs", rt.handleGraphs)
	rt.mux.HandleFunc("HEAD /v1/graphs/{ref}", rt.handleGraphHead)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.HandleFunc("GET /admin/ring", rt.handleRingGet)
	rt.mux.HandleFunc("POST /admin/ring", rt.handleRingSet)
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Ring returns the current ring (membership changes swap it atomically
// via SetRing).
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// SetRing installs a new ring — the membership-change path. Every
// member must name a backend the router was built with. The swap is a
// single atomic pointer store: every in-flight request keeps the ring
// it loaded at arrival (one consistent view per request, including each
// batch split), and every later request sees the new one.
func (rt *Router) SetRing(ring *Ring) error {
	for _, m := range ring.Members() {
		if _, ok := rt.backends[m]; !ok {
			return fmt.Errorf("cluster: ring member %q has no backend", m)
		}
	}
	rt.ring.Store(ring)
	rt.ringSwaps.Add(1)
	return nil
}

// ResetRing restores the boot-time membership (every configured member,
// original geometry) — the SIGHUP path after admin-driven drains.
func (rt *Router) ResetRing() error {
	ring, err := NewRing(rt.fullCfg)
	if err != nil {
		return err
	}
	return rt.SetRing(ring)
}

// ConfigureRetry replaces the successor-walk policy (attempt cap,
// per-attempt timeout, retry-budget ratio). Safe under traffic: the
// policy and a fresh budget swap in atomically.
func (rt *Router) ConfigureRetry(pol RetryPolicy) {
	pol = pol.withDefaults()
	rt.retry.Store(&retryState{pol: pol, budget: newRetryBudget(pol.BudgetRatio)})
}

// ConfigureBreakers replaces the per-backend circuit-breaker set (all
// breakers reset to closed).
func (rt *Router) ConfigureBreakers(cfg BreakerConfig) {
	rt.breakers = NewBreakerSet(cfg)
}

// Breakers exposes the breaker set (for sharing with a PeerFill or for
// tests).
func (rt *Router) Breakers() *BreakerSet { return rt.breakers }

// EnableHedge arms hedged sends for full-body solve forwards (graphRef
// solves are never hedged; see handleSolve): when the first attempt has
// not answered after the hedge delay, a second attempt fires at the
// next live successor and the first clean response wins. delay 0 means
// adaptive — the observed p95 attempt latency.
func (rt *Router) EnableHedge(delay time.Duration) {
	rt.hedgeDelayNs.Store(int64(delay))
	rt.hedgeOn.Store(true)
}

// Prober returns the active health prober, if one was installed.
func (rt *Router) Prober() *Prober { return rt.prober.Load() }

// RingWire is the admin /admin/ring request and response body.
type RingWire struct {
	Members []string `json:"members"`
	VNodes  int      `json:"vnodes,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
}

// adminLocal gates the admin surface to loopback callers: membership is
// an operator action, not a tenant one. An empty RemoteAddr (in-process
// callers, CLI harnesses) counts as local.
func adminLocal(r *http.Request) bool {
	if r.RemoteAddr == "" {
		return true
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

func (rt *Router) handleRingGet(w http.ResponseWriter, r *http.Request) {
	if !adminLocal(r) {
		rt.routerError(w, http.StatusForbidden, "admin endpoint is loopback-only")
		return
	}
	ring := rt.ring.Load()
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RingWire{Members: ring.Members(), VNodes: ring.cfg.VNodes, Seed: ring.cfg.Seed})
}

// handleRingSet swaps ring membership at runtime: drain a backend by
// POSTing the members that should keep receiving traffic, restore with
// the full set (or SIGHUP the router). Geometry defaults to the current
// ring's so a members-only body never silently reshuffles placement.
func (rt *Router) handleRingSet(w http.ResponseWriter, r *http.Request) {
	if !adminLocal(r) {
		rt.routerError(w, http.StatusForbidden, "admin endpoint is loopback-only")
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req RingWire
	if err := json.Unmarshal(body, &req); err != nil {
		rt.routerError(w, http.StatusBadRequest, "bad ring body: %v", err)
		return
	}
	cur := rt.ring.Load()
	cfg := RingConfig{Members: req.Members, VNodes: cur.cfg.VNodes, Seed: cur.cfg.Seed}
	if req.VNodes > 0 {
		cfg.VNodes = req.VNodes
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	ring, err := NewRing(cfg)
	if err != nil {
		rt.routerError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := rt.SetRing(ring); err != nil {
		rt.routerError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RingWire{Members: ring.Members(), VNodes: ring.cfg.VNodes, Seed: ring.cfg.Seed})
}

func (rt *Router) routerError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(service.SolveResponse{Code: "router", Error: fmt.Sprintf(format, args...)})
}

func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.maxBody))
	if err != nil {
		status := http.StatusBadRequest
		if _, tooLarge := err.(*http.MaxBytesError); tooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		rt.routerError(w, status, "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

// solveKey extracts the routing key from a /v1/solve body (see
// routingKey). The body is decoded by the service's own decoder, so a
// body a backend would reject as malformed is rejected here; the
// semantic checks (p, options, size limits) stay with the owner, which
// receives the body verbatim.
func solveKey(r *http.Request, body []byte) (key string, isRef bool, err error) {
	var req service.SolveRequest
	if err := service.DecodeSolveBody(r.Header.Get("Content-Type"), body, &req); err != nil {
		return "", false, err
	}
	return routingKey(req.Graph, req.GraphRef, -1)
}

// routingKey returns the key one solve routes by: its graphRef when it
// names one (isRef), otherwise the inline graph's fingerprint. item is
// the solve's index in a batch, for the error text, or -1 for a
// /v1/solve body.
func routingKey(g *graph.Graph, ref string, item int) (key string, isRef bool, err error) {
	switch {
	case ref != "" && intern.ValidRef(ref):
		return ref, true, nil
	case ref != "" && item < 0:
		return "", false, fmt.Errorf("malformed graphRef %q", ref)
	case ref != "":
		return "", false, fmt.Errorf("item %d: malformed graphRef %q", item, ref)
	case g != nil:
		return intern.Ref(g), false, nil
	case item < 0:
		return "", false, fmt.Errorf("request names neither graph nor graphRef")
	}
	return "", false, fmt.Errorf("item %d names neither graph nor graphRef", item)
}

// forward proxies one buffered request to the key's owner, walking the
// ring's successor chain on failure (every forwarded request is
// idempotent). The walk is bounded three ways: the breaker set skips
// backends known sick, the retry policy caps attempts and charges each
// retry against the token budget, and every attempt runs under its own
// per-attempt timeout. Only transport failures and gateway-class
// statuses move to a successor — any application-level answer (200,
// 429, 422, 408, …) is the client's response, relayed untouched.
// hedge additionally arms a tail-latency hedge on the first attempt.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte, hedge bool) {
	ring := rt.ring.Load()
	chain := ring.Successors(key, len(ring.Members()))
	st := rt.retry.Load()
	st.budget.onRequest()
	hedge = hedge && rt.hedgeOn.Load()

	var lastErr error
	var lastResp *http.Response
	attempts := 0
	for i, name := range chain {
		if r.Context().Err() != nil {
			break
		}
		if !rt.breakers.Allow(name) {
			lastErr = fmt.Errorf("backend %s: circuit open", name)
			continue
		}
		if attempts >= st.pol.MaxAttempts {
			break
		}
		if attempts > 0 {
			if !st.budget.take() {
				rt.budgetExhausted.Add(1)
				break
			}
			rt.retries.Add(1)
		}
		attempts++
		var resp *http.Response
		var err error
		if hedge && attempts == 1 && i+1 < len(chain) {
			resp, err = rt.sendHedged(r, name, chain[i+1:], body, st.pol.AttemptTimeout)
		} else {
			resp, err = rt.send(r.Context(), r, name, body, st.pol.AttemptTimeout, true)
		}
		if err != nil {
			rt.deadBackends.Add(1)
			lastErr = err
			continue
		}
		if BreakerFailure(resp, nil) {
			lastResp, lastErr = resp, fmt.Errorf("backend %s: status %d", name, resp.StatusCode)
			continue
		}
		rt.relay(w, resp)
		return
	}
	if lastResp != nil {
		// Out of attempts with only gateway-class answers: the last one
		// is more truthful than a synthesized error.
		rt.relay(w, lastResp)
		return
	}
	rt.routerError(w, http.StatusBadGateway, "no live backend for key %s: %v", key, lastErr)
}

// send is the router's one backend round trip: r's method, path and
// headers with body, to the named backend under ctx — bounded by timeout
// when positive — with the outcome reported to the backend's breaker.
// A buffered send (a forwarded request) reads the whole response under
// that bound, so the loser of a hedge or a timed-out straggler can be
// cancelled without tearing a stream out from under the client, and a
// 200 feeds the hedge delay's latency window. An unbuffered send (a
// batch) returns the live body for the caller to stream or read.
func (rt *Router) send(ctx context.Context, r *http.Request, name string, body []byte, timeout time.Duration, buffered bool) (*http.Response, error) {
	b, ok := rt.backends[name]
	if !ok {
		return nil, fmt.Errorf("no backend %q", name)
	}
	parent := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, "http://backend"+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	rt.sends[name].Add(1)
	start := time.Now()
	resp, err := b.Doer.Do(req)
	if err == nil && buffered {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		if rerr != nil {
			err = fmt.Errorf("backend %s: reading response: %w", name, rerr)
		}
	}
	rt.breakers.Report(name, !BreakerFailure(resp, err))
	if err != nil {
		if ctx.Err() != nil && parent.Err() == nil {
			rt.attemptTimeouts.Add(1)
		}
		return nil, err
	}
	rt.proxied.Add(1)
	rt.perBackend[name].Add(1)
	if buffered && resp.StatusCode == http.StatusOK {
		rt.lat.observe(time.Since(start))
	}
	return resp, nil
}

// defaultHedgeDelay is the hedge delay used until the latency tracker
// has enough samples for an adaptive p95.
const defaultHedgeDelay = 100 * time.Millisecond

// sendHedged runs the primary send and, if it has not answered after the
// hedge delay, fires one hedge at the first breaker-admitted successor.
// The primary is authoritative — whatever it answers (even a 429) is
// relayed the moment it arrives, and the hedge is cancelled; a hedge
// response short-circuits only when it is a clean 200, so a non-owner's
// 404 or a busy successor's 429 can never mask the owner's answer.
// Exactly one response is returned; the loser is cancelled.
func (rt *Router) sendHedged(r *http.Request, primary string, rest []string, body []byte, timeout time.Duration) (*http.Response, error) {
	delay := time.Duration(rt.hedgeDelayNs.Load())
	if delay <= 0 {
		delay = rt.lat.p95(defaultHedgeDelay)
	}
	type out struct {
		resp *http.Response
		err  error
		name string
	}
	parent := r.Context()
	pctx, pcancel := context.WithCancel(parent)
	defer pcancel()
	hctx, hcancel := context.WithCancel(parent)
	defer hcancel()
	ch := make(chan out, 2)
	run := func(ctx context.Context, name string) {
		resp, err := rt.send(ctx, r, name, body, timeout, true)
		ch <- out{resp: resp, err: err, name: name}
	}
	go run(pctx, primary)

	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedgeLaunched := false
	var primaryOut *out
	for {
		select {
		case o := <-ch:
			if o.name == primary {
				if !BreakerFailure(o.resp, o.err) || !hedgeLaunched {
					return o.resp, o.err
				}
				// The primary failed at the transport level with a hedge
				// in flight: its result may still save the request.
				primaryOut = &o
				continue
			}
			if o.err == nil && o.resp.StatusCode == http.StatusOK {
				rt.hedgeWins.Add(1)
				pcancel()
				return o.resp, nil
			}
			// The hedge lost (error, 404 at a non-owner, 429, …): only
			// the primary's answer counts.
			if primaryOut != nil {
				return primaryOut.resp, primaryOut.err
			}
			hedgeLaunched = false // nothing left in flight beside primary
		case <-timer.C:
			for _, name := range rest {
				if rt.breakers.Allow(name) {
					hedgeLaunched = true
					rt.hedged.Add(1)
					go run(hctx, name)
					break
				}
			}
		}
	}
}

// relay copies a backend response — status, headers, body — to the
// client untouched, preserving 429/408/422 semantics end to end.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	key, isRef, err := solveKey(r, body)
	if err != nil {
		rt.routerError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Solves are idempotent: retrying one on the next ring node after a
	// transport failure at worst recomputes a result. Only full-body
	// solves (an inline or binary graph) are hedged. A graphRef is
	// interned only at its ring owner, so any successor answers 404
	// unknownGraphRef and a graphRef hedge can never win; replicated ring
	// ownership (parked in ROADMAP.md) is what would make one worth
	// sending.
	rt.forward(w, r, key, body, !isRef)
}

// handleGraphs interns through the ring: the router parses the body
// exactly far enough to fingerprint it, then forwards the original
// bytes to the owner — so a graph is always interned on the node where
// later graphRef solves of it will land. Interning is idempotent, so
// dead-backend retry applies.
func (rt *Router) handleGraphs(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	g, _, err := graph.DecodeBody(r.Header.Get("Content-Type"), body)
	if err != nil {
		rt.routerError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.forward(w, r, intern.Ref(g), body, false)
}

func (rt *Router) handleGraphHead(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	if !intern.ValidRef(ref) {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	rt.forward(w, r, ref, nil, false)
}

// handleBatch splits a batch by item ownership. A batch whose items all
// live on one backend is forwarded verbatim; a mixed batch becomes one
// sub-batch per owner, solved concurrently, with the NDJSON streams
// concatenated — ids correlate lines, exactly as on a single node,
// where completion order is already arbitrary. Batches are not retried
// on dead backends (the stream is not idempotent once partially
// delivered); a sub-batch that cannot be delivered reports its items as
// error lines instead.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req service.BatchRequest
	if err := service.DecodeBatchRequest(body, &req); err != nil {
		rt.routerError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		rt.routerError(w, http.StatusBadRequest, "empty batch")
		return
	}
	ring := rt.ring.Load()
	owners := make(map[string][]int)
	order := make([]string, 0, 4)
	for i := range req.Items {
		key, _, err := routingKey(req.Items[i].Graph, req.Items[i].GraphRef, i)
		if err != nil {
			rt.routerError(w, http.StatusBadRequest, "%v", err)
			return
		}
		owner := ring.Owner(key)
		if _, seen := owners[owner]; !seen {
			order = append(order, owner)
		}
		owners[owner] = append(owners[owner], i)
	}
	type part struct {
		status int
		body   []byte
		items  []int
		err    error
	}
	parts := make([]part, len(order))
	if len(order) == 1 {
		// Single owner: pure passthrough of the verbatim body to that
		// owner, streamed back. This must name the backend directly —
		// forward() routes by key, and no single key stands for the whole
		// batch. A failed send (or an open breaker: same fate, without
		// paying for the discovery) reports every item as an error line
		// below, exactly like an unreachable sub-batch.
		resp, err := rt.sendBatch(r, order[0], body)
		if err == nil {
			rt.relay(w, resp)
			return
		}
		parts[0] = part{items: owners[order[0]], err: err}
	} else {
		rt.splitBatches.Add(1)
		var wg sync.WaitGroup
		for pi, owner := range order {
			idxs := owners[owner]
			sub := service.BatchRequest{Options: req.Options, Workers: req.Workers, Tenant: req.Tenant,
				Items: make([]service.SolveRequest, len(idxs))}
			for j, idx := range idxs {
				sub.Items[j] = req.Items[idx]
			}
			sb, err := json.Marshal(sub)
			if err != nil {
				rt.routerError(w, http.StatusInternalServerError, "re-marshal sub-batch: %v", err)
				return
			}
			parts[pi].items = idxs
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := rt.sendBatch(r, owner, sb)
				if err != nil {
					parts[pi].err = err
					return
				}
				defer resp.Body.Close()
				parts[pi].status = resp.StatusCode
				parts[pi].body, parts[pi].err = io.ReadAll(resp.Body)
			}()
		}
		wg.Wait()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for pi := range parts {
		p := &parts[pi]
		switch {
		case p.err == nil && p.status == http.StatusOK:
			w.Write(p.body)
		case p.err == nil:
			// The owner rejected its whole sub-batch (429, 400, …): its
			// body is one JSON error object; report it per item so the
			// client's id-correlated stream stays complete.
			var rej service.SolveResponse
			json.Unmarshal(p.body, &rej)
			for _, idx := range p.items {
				enc.Encode(service.SolveResponse{ID: req.Items[idx].ID, Code: rej.Code,
					Error: fmt.Sprintf("backend rejected sub-batch (status %d): %s", p.status, rej.Error)})
			}
		default:
			rt.deadBackends.Add(1)
			for _, idx := range p.items {
				enc.Encode(service.SolveResponse{ID: req.Items[idx].ID, Code: "router",
					Error: fmt.Sprintf("backend unreachable: %v", p.err)})
			}
		}
	}
}

// sendBatch sends a batch or sub-batch to its owner, unbuffered and
// under the request context alone: batches are never retried and never
// cut off by the per-attempt timeout. An open breaker fails it fast,
// without a send.
func (rt *Router) sendBatch(r *http.Request, owner string, body []byte) (*http.Response, error) {
	if !rt.breakers.Allow(owner) {
		return nil, fmt.Errorf("backend %s: circuit open", owner)
	}
	return rt.send(r.Context(), r, owner, body, 0, false)
}

// RouterStats is the body of the router's GET /v1/stats.
type RouterStats struct {
	// Members and ring geometry currently routing.
	Members []string `json:"members"`
	VNodes  int      `json:"vnodes"`
	Seed    uint64   `json:"seed"`
	// Proxied counts backend round trips; PerBackend splits them by
	// member. Retries counts successor attempts after a transport
	// failure; DeadBackends counts the failures themselves.
	// SplitBatches counts batches fanned out to more than one owner.
	// RingSwaps counts runtime membership changes (admin POSTs, SIGHUP
	// resets).
	Proxied      int64            `json:"proxied"`
	Retries      int64            `json:"retries"`
	DeadBackends int64            `json:"deadBackends"`
	SplitBatches int64            `json:"splitBatches"`
	RingSwaps    int64            `json:"ringSwaps"`
	PerBackend   map[string]int64 `json:"perBackend"`
	// Sends counts attempts that reached each backend's transport,
	// including ones that failed or timed out (PerBackend counts only
	// completed round trips) — the "ejected node drains to zero" chaos
	// invariant is a statement about Sends.
	Sends map[string]int64 `json:"sends"`
	// Hedged counts fired hedge attempts; HedgeWins the hedges whose
	// clean response beat the primary. RetryBudgetExhausted counts
	// successor retries suppressed by the token budget, and
	// AttemptTimeouts the attempts cut off by their per-attempt bound.
	Hedged               int64 `json:"hedged"`
	HedgeWins            int64 `json:"hedgeWins"`
	RetryBudgetExhausted int64 `json:"retryBudgetExhausted"`
	AttemptTimeouts      int64 `json:"attemptTimeouts"`
	// Breakers is the circuit-breaker block; Health the prober's (absent
	// when no prober is installed).
	Breakers BreakerStats `json:"breakers"`
	Health   *HealthStats `json:"health,omitempty"`
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() RouterStats {
	ring := rt.ring.Load()
	st := RouterStats{
		Members:      ring.Members(),
		VNodes:       ring.cfg.VNodes,
		Seed:         ring.cfg.Seed,
		Proxied:      rt.proxied.Load(),
		Retries:      rt.retries.Load(),
		DeadBackends: rt.deadBackends.Load(),
		SplitBatches: rt.splitBatches.Load(),
		RingSwaps:    rt.ringSwaps.Load(),
		PerBackend:   make(map[string]int64, len(rt.perBackend)),
		Sends:        make(map[string]int64, len(rt.sends)),

		Hedged:               rt.hedged.Load(),
		HedgeWins:            rt.hedgeWins.Load(),
		RetryBudgetExhausted: rt.budgetExhausted.Load(),
		AttemptTimeouts:      rt.attemptTimeouts.Load(),
		Breakers:             rt.breakers.Stats(),
	}
	for name, c := range rt.perBackend {
		st.PerBackend[name] = c.Load()
	}
	for name, c := range rt.sends {
		st.Sends[name] = c.Load()
	}
	if p := rt.prober.Load(); p != nil {
		hs := p.Stats()
		st.Health = &hs
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.Stats())
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// readyProbeTimeout bounds each member's probe on the prober-less
// /readyz path: one blackholed backend costs one timeout, never a
// stalled aggregation.
const readyProbeTimeout = time.Second

// handleReady aggregates the backends: the router is ready exactly when
// every current ring member is healthy. With a prober installed the
// answer comes from its state snapshot — no network at all. Without
// one, every member is probed concurrently, each under its own
// per-probe timeout, and a member that cannot answer in time is
// reported degraded rather than allowed to stall the aggregation.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	type readyWire struct {
		Ready   bool              `json:"ready"`
		Reason  string            `json:"reason,omitempty"`
		Members map[string]string `json:"members,omitempty"`
	}
	members := rt.ring.Load().Members()
	states := make(map[string]string, len(members))
	reason := ""

	if p := rt.prober.Load(); p != nil {
		snap := p.Snapshot()
		for _, name := range members {
			st, ok := snap[name]
			if !ok {
				st = ProbeStatus{State: HealthDegraded, LastError: "unknown to prober"}
			}
			states[name] = st.State
			if reason == "" && st.State != HealthHealthy {
				reason = fmt.Sprintf("backend %s %s: %s", name, st.State, st.LastError)
			}
		}
	} else {
		for i, err := range rt.probe(r.Context(), members, readyProbeTimeout) {
			states[members[i]] = HealthHealthy
			if err != nil {
				states[members[i]] = HealthDegraded
				if reason == "" {
					reason = fmt.Sprintf("backend %s: %v", members[i], err)
				}
			}
		}
	}

	w.Header().Set("Content-Type", "application/json")
	if reason != "" {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(readyWire{Reason: reason, Members: states})
		return
	}
	json.NewEncoder(w).Encode(readyWire{Ready: true, Members: states})
}
