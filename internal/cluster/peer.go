package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/labeling"
	"lpltsp/internal/service"
)

// PeerFill is the cluster's core.L2Cache: installed on a node's
// SolveCache (SolveCache.SetL2), it intercepts every cacheable L1 miss
// whose graph is owned by ANOTHER ring member and forwards the solve
// there instead of running it locally. The owner answers from its own
// L1 when it can and solves (once, under its own singleflight) when it
// cannot — so a herd for one hot key across every frontend collapses
// onto the owner's single flight, and the cluster performs exactly one
// underlying solve. The result rides back as a compact LPR1 binary
// frame and is published into the local L1, so the next local request
// does not even cross the wire.
//
// The consult is graphRef-first: the peer request names only the
// fingerprint, and the graph body crosses the wire at most once per
// (owner, graph) pair — a HEAD /v1/graphs/{ref} probe (cheap, body-less)
// decides whether the owner still holds the ref, and only a miss
// re-interns it via POST /v1/graphs. Confirmed refs are remembered, so
// the steady-state consult is a single POST /v1/solve carrying ~50
// bytes.
//
// Failure semantics: a dead or rejecting owner (transport error, 429,
// 408, any non-200) is reported as a failed consult — the local flight
// solves the instance itself (counted as an L2 fallback in CacheStats),
// trading the exactly-once property for availability under partial
// failure. Keys this node owns itself are declined quietly, and every
// forwarded request carries service.PeerFillHeader so the owner never
// forwards it again.
type PeerFill struct {
	self  string
	ring  *Ring
	doers map[string]Doer

	// breakers, when set, fail consults of a sick owner fast (straight
	// to the local solve) instead of paying a transport timeout per L1
	// miss. Nil means no breaker layer.
	breakers *BreakerSet

	// fillTimeout, when positive, bounds one whole consult (probe +
	// intern + solve). A stalled owner is a gray failure: without a
	// bound it wedges the flight leader — and the worker running it —
	// until the caller's context gives up. 0 (the default) means no
	// bound beyond the caller's context: in-process transports share the
	// request context with the owner, where an injected deadline would
	// change solve semantics (the planner treats it as a solve budget),
	// so the bound is strictly opt-in.
	fillTimeout time.Duration

	// confirmed remembers (owner, ref) pairs known interned at the
	// owner, keyed owner+"\x00"+ref. Entries are dropped when a consult
	// 404s (the owner evicted the ref), re-triggering the HEAD/POST
	// dance. The set is bounded by confirmedCap — it would otherwise
	// grow one entry per distinct graph for the life of the process.
	mu        sync.Mutex
	confirmed map[string]bool
}

// confirmedCap bounds PeerFill.confirmed, mirroring the owner-side
// intern store's eviction: when full the set is reset wholesale rather
// than tracked with LRU bookkeeping, since a forgotten confirmation
// costs only one body-less HEAD re-probe on the next consult.
const confirmedCap = 1 << 16

// NewPeerFill builds the L2 for the node named self. backends must
// cover every ring member (including self, which is declined without a
// transport).
func NewPeerFill(self string, backends []Backend, cfg RingConfig) (*PeerFill, error) {
	if len(cfg.Members) == 0 {
		for _, b := range backends {
			cfg.Members = append(cfg.Members, b.Name)
		}
	}
	ring, err := NewRing(cfg)
	if err != nil {
		return nil, err
	}
	doers := make(map[string]Doer, len(backends))
	for _, b := range backends {
		doers[b.Name] = b.Doer
	}
	for _, m := range ring.Members() {
		if _, ok := doers[m]; !ok && m != self {
			return nil, fmt.Errorf("cluster: peer fill for %q: ring member %q has no backend", self, m)
		}
	}
	return &PeerFill{self: self, ring: ring, doers: doers, confirmed: map[string]bool{}}, nil
}

// SetBreakers installs a per-owner circuit-breaker set (usually shared
// with other cluster plumbing on the same node). Call before serving.
func (pf *PeerFill) SetBreakers(bs *BreakerSet) { pf.breakers = bs }

// DefaultFillTimeout is the recommended consult bound for socket-level
// deployments (the lplserve -fill-timeout flag default): generous
// against a slow owner, decisive against a stalled one.
const DefaultFillTimeout = 2 * time.Second

// SetFillTimeout bounds each peer consult; a consult that exceeds it
// fails (and, with breakers installed, counts toward opening the
// owner's circuit) and the local flight solves instead. Zero or
// negative leaves the consult bounded only by the caller's context.
// Call before serving.
func (pf *PeerFill) SetFillTimeout(d time.Duration) { pf.fillTimeout = d }

// breakerDoer reports every round trip's transport outcome to the
// breaker set: an error or gateway-class status is a failure, any other
// response — including a 429 or 404 — is a healthy owner answering.
type breakerDoer struct {
	bs   *BreakerSet
	name string
	next Doer
}

func (d breakerDoer) Do(req *http.Request) (*http.Response, error) {
	resp, err := d.next.Do(req)
	d.bs.Report(d.name, !BreakerFailure(resp, err))
	return resp, err
}

// GetOrSolve implements core.L2Cache. It runs on the flight leader of a
// local L1 miss, under the flight's context.
func (pf *PeerFill) GetOrSolve(ctx context.Context, g *graph.Graph, p labeling.Vector, opts *core.Options) (*core.Result, bool, error) {
	if opts.Chained != nil {
		// Chained-heuristic tuning has no wire form; solve locally.
		return nil, false, nil
	}
	ref := intern.Ref(g)
	owner := pf.ring.Owner(ref)
	if owner == pf.self {
		return nil, false, nil // this node IS the owner: decline quietly
	}
	doer, ok := pf.doers[owner]
	if !ok {
		return nil, false, fmt.Errorf("cluster: no transport for owner %q", owner)
	}
	if pf.fillTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pf.fillTimeout)
		defer cancel()
	}
	if pf.breakers != nil {
		if !pf.breakers.Allow(owner) {
			// Fail the consult without touching the wire; the local
			// flight solves (an L2 fallback), trading exactly-once for
			// not queueing behind a dead owner's connect timeouts.
			return nil, false, fmt.Errorf("cluster: owner %q circuit open", owner)
		}
		doer = breakerDoer{bs: pf.breakers, name: owner, next: doer}
	}
	if err := pf.ensureInterned(ctx, doer, owner, ref, g); err != nil {
		return nil, false, err
	}
	res, err := pf.solveAt(ctx, doer, owner, ref, p, opts)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// ensureInterned makes ref resolvable at the owner, sending the graph
// body at most once: HEAD probes first, POST /v1/graphs only on a miss.
func (pf *PeerFill) ensureInterned(ctx context.Context, doer Doer, owner, ref string, g *graph.Graph) error {
	key := owner + "\x00" + ref
	pf.mu.Lock()
	done := pf.confirmed[key]
	pf.mu.Unlock()
	if done {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, "http://backend/v1/graphs/"+ref, nil)
	if err != nil {
		return err
	}
	resp, err := doer.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: HEAD ref at %s: %w", owner, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body := graph.AppendBinary(nil, g)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://backend/v1/graphs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", graph.BinaryContentType)
		resp, err := doer.Do(req)
		if err != nil {
			return fmt.Errorf("cluster: intern at %s: %w", owner, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cluster: intern at %s: status %d", owner, resp.StatusCode)
		}
	}
	pf.mu.Lock()
	if len(pf.confirmed) >= confirmedCap {
		pf.confirmed = make(map[string]bool)
	}
	pf.confirmed[key] = true
	pf.mu.Unlock()
	return nil
}

// solveAt performs the peer solve: a graphRef request with the binary
// result frame negotiated and the peer-fill loop guard set.
func (pf *PeerFill) solveAt(ctx context.Context, doer Doer, owner, ref string, p labeling.Vector, opts *core.Options) (*core.Result, error) {
	wire := service.SolveRequest{GraphRef: ref, P: p, Options: wireOptions(opts)}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://backend/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", core.ResultContentType)
	req.Header.Set(service.PeerFillHeader, "1")
	resp, err := doer.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: solve at %s: %w", owner, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The owner evicted the ref between our probe and the solve;
		// forget the confirmation so the next consult re-interns.
		pf.mu.Lock()
		delete(pf.confirmed, owner+"\x00"+ref)
		pf.mu.Unlock()
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: solve at %s: status %d", owner, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: solve at %s: reading frame: %w", owner, err)
	}
	res, rest, err := core.DecodeResultFrame(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: solve at %s: %w", owner, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: solve at %s: %d trailing bytes after result frame", owner, len(rest))
	}
	return res, nil
}

// wireOptions renders the result-shaping options onto the wire. Cache
// routing (Options.Cache, DisableL2) is node-local by definition and
// never crosses; NoCache/Verify are pinned by cacheability (the L2 is
// only consulted for verified, cacheable solves).
func wireOptions(opts *core.Options) *service.WireOptions {
	w := &service.WireOptions{
		Method:    string(opts.Method),
		Algorithm: string(opts.Algorithm),
	}
	for _, e := range opts.Engines {
		w.Engines = append(w.Engines, string(e))
	}
	if opts.Deadline > 0 {
		w.DeadlineMs = int64(opts.Deadline / time.Millisecond)
	}
	return w
}
