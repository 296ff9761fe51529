package service

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/labeling"
	"lpltsp/internal/tsp"
)

// Wire types of the lplserve HTTP API. Graphs ride on the graph package's
// JSON codec (object form {"n":…,"edges":[[u,v],…]} or a DIMACS document
// as a JSON string), so the same files the CLIs read can be pasted into
// requests.
//
// Request bodies are decoded in one pass by the decoders at the end of
// this file, on the graph package's streaming scanner (graph.JSONReader):
// the envelope and the graph inside it are read in a single scan, and
// the graph is built as the scan reaches it. The json tags below are the
// encoding side, and the contract the decoders keep.

// SolveRequest is the body of POST /v1/solve and one element of a
// BatchRequest.
type SolveRequest struct {
	// ID is an optional caller-chosen identifier echoed back on the
	// response; batch responses use it to correlate the NDJSON stream.
	ID string `json:"id,omitempty"`
	// Graph is the instance, in either JSON wire form. Exactly one of
	// Graph / GraphRef must be set.
	Graph *graph.Graph `json:"graph,omitempty"`
	// GraphRef names a graph previously interned via POST /v1/graphs (the
	// 32-hex fingerprint that endpoint returned). Referenced solves skip
	// body parsing, graph construction, and fingerprint hashing; an
	// unknown or evicted ref fails with 404 and code "unknownGraphRef".
	GraphRef string `json:"graphRef,omitempty"`
	// P is the constraint vector p = (p1,…,pk).
	P labeling.Vector `json:"p"`
	// Options tunes the solve; omitted fields keep server defaults
	// (verification on, automatic planning, shared cache).
	Options *WireOptions `json:"options,omitempty"`
	// Tenant identifies the requester for quota accounting and per-tenant
	// stats; it falls back to the X-Lpl-Tenant header, and empty means
	// anonymous (never quota-capped). On batch items the request-level
	// tenant governs admission; item-level values are ignored.
	Tenant string `json:"tenant,omitempty"`
	// Explain includes the routing decision (the plan) in the response.
	Explain bool `json:"explain,omitempty"`
}

// WireOptions is the JSON form of core.Options.
type WireOptions struct {
	// Method pins a planner method (reduction|tree|fpt-coloring|
	// pmax-approx|greedy). Empty plans automatically.
	Method string `json:"method,omitempty"`
	// Algorithm pins a TSP engine (exact|heldkarp|bnb|christofides|
	// chained|2opt|3opt|nn|greedy|portfolio).
	Algorithm string `json:"algorithm,omitempty"`
	// Engines is the portfolio roster when Algorithm is "portfolio".
	Engines []string `json:"engines,omitempty"`
	// Verify re-checks the labeling against the definition before
	// responding. Defaults to true; only verified results enter the
	// shared cache.
	Verify *bool `json:"verify,omitempty"`
	// NoCache opts this solve out of the server's memoization cache.
	NoCache bool `json:"noCache,omitempty"`
	// DeadlineMs bounds the solve in milliseconds; the server clamps it
	// to its -max-deadline. Anytime engines return their best-so-far
	// labeling (truncated=true) when it fires.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// toOptions converts wire options to core options, applying the server's
// deadline policy: requests without a deadline get defaultDeadline, and
// no request may exceed maxDeadline (0 = unlimited).
func (w *WireOptions) toOptions(defaultDeadline, maxDeadline time.Duration) *core.Options {
	opts := &core.Options{Verify: true, Deadline: defaultDeadline}
	if w == nil {
		if maxDeadline > 0 && (opts.Deadline == 0 || opts.Deadline > maxDeadline) {
			opts.Deadline = maxDeadline
		}
		return opts
	}
	opts.Method = core.MethodName(w.Method)
	opts.Algorithm = tsp.Algorithm(w.Algorithm)
	for _, e := range w.Engines {
		opts.Engines = append(opts.Engines, tsp.Algorithm(e))
	}
	if w.Verify != nil {
		opts.Verify = *w.Verify
	}
	opts.NoCache = w.NoCache
	if w.DeadlineMs > 0 {
		opts.Deadline = time.Duration(w.DeadlineMs) * time.Millisecond
	}
	if maxDeadline > 0 && (opts.Deadline == 0 || opts.Deadline > maxDeadline) {
		opts.Deadline = maxDeadline
	}
	return opts
}

// validate rejects requests the solver cannot accept before any work is
// queued. maxVertices ≤ 0 disables the size gate. Callers resolve
// GraphRef into Graph first (Server.prepare), so by the time validation
// runs a well-formed request always carries a graph.
func (r *SolveRequest) validate(maxVertices int) error {
	if r.Graph == nil {
		if r.GraphRef != "" {
			return fmt.Errorf("unresolved graphRef %q", r.GraphRef)
		}
		return fmt.Errorf("missing graph")
	}
	if err := r.P.Validate(); err != nil {
		return err
	}
	if maxVertices > 0 && r.Graph.N() > maxVertices {
		return fmt.Errorf("graph has %d vertices, server limit is %d", r.Graph.N(), maxVertices)
	}
	if r.Options != nil {
		if m := r.Options.Method; m != "" {
			if _, err := core.LookupMethod(core.MethodName(m)); err != nil {
				return fmt.Errorf("unknown method %q", m)
			}
		}
		if a := r.Options.Algorithm; a != "" && a != string(core.AlgoPortfolio) {
			if _, err := tsp.Lookup(tsp.Algorithm(a)); err != nil {
				return fmt.Errorf("unknown algorithm %q", a)
			}
		}
		for _, e := range r.Options.Engines {
			if _, err := tsp.Lookup(tsp.Algorithm(e)); err != nil {
				return fmt.Errorf("unknown engine %q in portfolio roster", e)
			}
		}
	}
	return nil
}

// tooLarge reports whether the request trips the server's instance-size
// gate — the one validation failure that maps to 413, not 400.
func (r *SolveRequest) tooLarge(maxVertices int) bool {
	return maxVertices > 0 && r.Graph != nil && r.Graph.N() > maxVertices
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Items are solved through one bounded worker pool; results stream
	// back as NDJSON in completion order (match them by id).
	Items []SolveRequest `json:"items"`
	// Options applies to every item that does not carry its own.
	Options *WireOptions `json:"options,omitempty"`
	// Workers bounds the pool; the server clamps it to its -workers.
	// 0 means the server default.
	Workers int `json:"workers,omitempty"`
	// Tenant identifies the requester for quota accounting (falls back
	// to the X-Lpl-Tenant header). The whole batch is admitted under one
	// tenant — a batch is one user's request.
	Tenant string `json:"tenant,omitempty"`
}

// SolveResponse is the body of a /v1/solve response and one NDJSON line
// of a /v1/batch stream. Exactly one of Error / the result fields is
// meaningful: Error is set iff the item failed.
type SolveResponse struct {
	ID string `json:"id,omitempty"`
	// Code machine-classifies an error ("unknownGraphRef" for a solve
	// naming a ref the intern store does not hold); empty on success and
	// on errors a client cannot act on programmatically.
	Code     string `json:"code,omitempty"`
	Span     int    `json:"span"`
	Labeling []int  `json:"labeling,omitempty"`
	// Method is the planner route that produced the result; Algorithm and
	// Winner name the TSP engine when the route was the reduction, or the
	// certificate that answered it without one (greedy, pathcover).
	Method    string  `json:"method,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	Winner    string  `json:"winner,omitempty"`
	Exact     bool    `json:"exact"`
	Approx    float64 `json:"approx,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
	// CacheHit reports the result was served from the server's solve
	// cache shared across all its requests; Coalesced additionally marks
	// requests that joined an identical solve already in flight
	// (singleflight) instead of waiting for it to land in the LRU.
	CacheHit  bool `json:"cacheHit"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Remote marks a result obtained from (or first filled by) the
	// cluster node owning this graph's fingerprint, via the L2 peer-fill
	// tier, rather than solved in this process; cacheHit then reflects
	// the owning node's view.
	Remote bool `json:"remote,omitempty"`
	// DeadlineRerouted marks a result whose planner route was overridden
	// by the learned cost model because the statically preferred method
	// was predicted to miss the request's remaining deadline budget.
	DeadlineRerouted bool    `json:"deadlineRerouted,omitempty"`
	SolveMs          float64 `json:"solveMs"`
	// Plan is the routing decision, included when the request set
	// explain.
	Plan *WirePlan `json:"plan,omitempty"`
	// Error is the failure message of this item (batch lines and error
	// responses).
	Error string `json:"error,omitempty"`
}

// WirePlan mirrors core.Plan.
type WirePlan struct {
	Chosen     string          `json:"chosen"`
	Forced     bool            `json:"forced,omitempty"`
	N          int             `json:"n"`
	M          int             `json:"m"`
	Connected  bool            `json:"connected"`
	Components int             `json:"components"`
	Diameter   int             `json:"diameter"`
	Candidates []WireCandidate `json:"candidates,omitempty"`
	// BudgetMs is the remaining deadline budget the planner routed
	// against; DeadlineRerouted reports the learned cost model overrode
	// the static choice to meet it.
	BudgetMs         float64     `json:"budgetMs,omitempty"`
	DeadlineRerouted bool        `json:"deadlineRerouted,omitempty"`
	Sub              []*WirePlan `json:"sub,omitempty"`
}

// WireCandidate mirrors core.Candidate.
type WireCandidate struct {
	Method     string  `json:"method"`
	Applicable bool    `json:"applicable"`
	Exact      bool    `json:"exact,omitempty"`
	Approx     float64 `json:"approx,omitempty"`
	// PredictedMs is the learned cost model's latency estimate for this
	// method on this instance (omitted while the model is cold).
	PredictedMs float64 `json:"predictedMs,omitempty"`
	Reason      string  `json:"reason,omitempty"`
}

func wirePlan(pl *core.Plan) *WirePlan {
	if pl == nil {
		return nil
	}
	wp := &WirePlan{
		Chosen:           string(pl.Chosen),
		Forced:           pl.Forced,
		N:                pl.N,
		M:                pl.M,
		Connected:        pl.Connected,
		Components:       pl.Components,
		Diameter:         pl.Diameter,
		BudgetMs:         float64(pl.Budget.Microseconds()) / 1000,
		DeadlineRerouted: pl.DeadlineRerouted,
	}
	for _, c := range pl.Candidates {
		wp.Candidates = append(wp.Candidates, WireCandidate{
			Method:      string(c.Method),
			Applicable:  c.Applicable,
			Exact:       c.Exact,
			Approx:      c.Approx,
			PredictedMs: float64(c.Predicted.Microseconds()) / 1000,
			Reason:      c.Reason,
		})
	}
	for _, sub := range pl.Sub {
		wp.Sub = append(wp.Sub, wirePlan(sub))
	}
	return wp
}

// wireResultInto fills a (possibly pooled) response struct in place with
// a solved result; every field is overwritten, so recycled structs carry
// nothing over.
func wireResultInto(resp *SolveResponse, id string, res *core.Result, elapsed time.Duration, explain bool) {
	*resp = SolveResponse{
		ID:               id,
		Span:             res.Span,
		Labeling:         res.Labeling,
		Method:           string(res.Method),
		Algorithm:        string(res.Algorithm),
		Winner:           string(res.Winner),
		Exact:            res.Exact,
		Approx:           res.Approx,
		Truncated:        res.Truncated,
		CacheHit:         res.CacheHit,
		Coalesced:        res.Coalesced,
		Remote:           res.Remote,
		DeadlineRerouted: res.DeadlineRerouted,
		SolveMs:          float64(elapsed.Microseconds()) / 1000,
	}
	if explain {
		resp.Plan = wirePlan(res.Plan)
	}
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// UptimeSeconds since the server was constructed.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Queue occupancy: jobs admitted and waiting for a worker, jobs
	// currently solving, and the admission capacity.
	Queued     int64 `json:"queued"`
	InFlight   int64 `json:"inFlight"`
	QueueDepth int   `json:"queueDepth"`
	// Admission outcomes since start: jobs let in and jobs turned away
	// with 429.
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// Completed solves and failures (across solo and batch traffic).
	Solved int64 `json:"solved"`
	Failed int64 `json:"failed"`
	// Cache is this server's solve cache, shared by all its requests.
	Cache CacheWire `json:"cache"`
	// Graphs is the intern store behind /v1/graphs and graphRef solves.
	Graphs InternWire `json:"graphs"`
	// Methods counts successful solves per planner route; Solved is
	// their sum. A cache hit counts under the route that filled the
	// entry, a decomposed disconnected instance once as "components".
	Methods map[string]int64 `json:"methods"`
	// Ready mirrors GET /readyz (true ⇔ /readyz would answer 200).
	Ready bool `json:"ready"`
	// Fault is the fault-containment block: panics stopped at each
	// boundary, watchdog kills, and the quarantine's state.
	Fault FaultWire `json:"fault"`
	// Sched is the deadline-scheduling block: policy, shed/quota
	// counters, deadline misses, and the per-tenant table.
	Sched SchedWire `json:"sched"`
}

// SchedWire is the scheduling section of GET /v1/stats.
type SchedWire struct {
	// Policy is the admission policy in force ("edf" or "fifo").
	Policy string `json:"policy"`
	// TenantQuotaJobs is the per-named-tenant occupancy cap in jobs
	// (0 when quotas are disabled).
	TenantQuotaJobs int `json:"tenantQuotaJobs,omitempty"`
	// Sheds counts queued jobs evicted because their deadline became
	// provably unmeetable while feasible work needed the capacity;
	// InfeasibleRejected counts arrivals turned away at 429-time for the
	// same reason; QuotaRejected counts admission groups refused because
	// the tenant was at quota.
	Sheds              int64 `json:"sheds"`
	InfeasibleRejected int64 `json:"infeasibleRejected"`
	QuotaRejected      int64 `json:"quotaRejected"`
	// DeadlineMisses counts completed jobs that finished after their
	// deadline (or died on it); truncated results delivered in time are
	// not misses.
	DeadlineMisses int64 `json:"deadlineMisses"`
	// Tenants is the per-tenant table (named tenants only; bounded).
	Tenants map[string]TenantWire `json:"tenants,omitempty"`
}

// TenantWire is one named tenant's row in the sched stats.
type TenantWire struct {
	InSystem       int64 `json:"inSystem"`
	Admitted       int64 `json:"admitted"`
	Rejected       int64 `json:"rejected"`
	Shed           int64 `json:"shed"`
	Solved         int64 `json:"solved"`
	Failed         int64 `json:"failed"`
	DeadlineMisses int64 `json:"deadlineMisses"`
}

// FaultWire is the fault-containment section of GET /v1/stats.
type FaultWire struct {
	// HandlerPanics were caught at the HTTP boundary (code "panic");
	// EnginePanics and StuckSolves are containment failures seen by this
	// server's requests; WatchdogKills counts the flights the watchdog of
	// this server's cache force-failed (it can exceed StuckSolves when
	// kills land on abandoned flights).
	HandlerPanics int64 `json:"handlerPanics"`
	EnginePanics  int64 `json:"enginePanics"`
	StuckSolves   int64 `json:"stuckSolves"`
	WatchdogKills int64 `json:"watchdogKills"`
	// PanicsByMethod attributes the contained panics of this server's
	// solves to the method (or site: "pipeline", "batch") that raised
	// them, racer panics a portfolio survived included (omitted while
	// zero panics have occurred).
	PanicsByMethod map[string]int64 `json:"panicsByMethod,omitempty"`
	// Quarantine reports the poison-instance tracker.
	Quarantine QuarantineWire `json:"quarantine"`
}

// QuarantineWire is the JSON form of fault.Stats plus the trailing
// trip-rate sample that feeds /readyz.
type QuarantineWire struct {
	Enabled     bool    `json:"enabled"`
	Threshold   int     `json:"threshold,omitempty"`
	TTLSeconds  float64 `json:"ttlSeconds,omitempty"`
	Tracked     int64   `json:"tracked"`
	Active      int64   `json:"active"`
	Trips       int64   `json:"trips"`
	FastFails   int64   `json:"fastFails"`
	RecentTrips int     `json:"recentTrips"`
}

// GraphsResponse is the body of a POST /v1/graphs response: the ref to
// use as "graphRef" in later /v1/solve and /v1/batch requests, plus the
// parsed instance's size so clients can sanity-check what was interned.
// Reinterned reports the graph was already in the store (the submission
// refreshed its LRU position).
type GraphsResponse struct {
	GraphRef   string `json:"graphRef"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	Reinterned bool   `json:"reinterned,omitempty"`
	Error      string `json:"error,omitempty"`
}

// InternWire is the JSON form of intern.Stats plus the derived hit rate
// of graphRef resolution.
type InternWire struct {
	Entries    int64   `json:"entries"`
	Capacity   int64   `json:"capacity"`
	Puts       int64   `json:"puts"`
	Reinterned int64   `json:"reinterned"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	HitRate    float64 `json:"hitRate"`
}

func wireIntern(st intern.Stats) InternWire {
	iw := InternWire{Entries: st.Entries, Capacity: st.Capacity, Puts: st.Puts,
		Reinterned: st.Reinterned, Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions}
	if total := st.Hits + st.Misses; total > 0 {
		iw.HitRate = float64(st.Hits) / float64(total)
	}
	return iw
}

// CacheWire is the JSON form of core.CacheStats plus the derived rate.
// Coalesced counts requests served by joining an in-flight identical
// solve; they are not LRU hits (the result had not landed yet), so they
// are reported separately and included in servedRate but not hitRate.
type CacheWire struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int64   `json:"entries"`
	Coalesced int64   `json:"coalesced"`
	HitRate   float64 `json:"hitRate"`
	// ServedRate is the fraction of lookups answered without running a
	// solve at all: (hits + coalesced) / (hits + misses).
	ServedRate float64 `json:"servedRate"`
	// L2 tier (cluster peer fill; all zero when none is installed):
	// flights answered by the owning peer, the subset the peer served
	// from its own L1, and consults that failed and fell back to a local
	// solve.
	L2Served    int64 `json:"l2Served,omitempty"`
	L2PeerHits  int64 `json:"l2PeerHits,omitempty"`
	L2Fallbacks int64 `json:"l2Fallbacks,omitempty"`
}

func wireCache(st core.CacheStats) CacheWire {
	cw := CacheWire{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		Entries: st.Entries, Coalesced: st.Coalesced,
		L2Served: st.L2Served, L2PeerHits: st.L2PeerHits, L2Fallbacks: st.L2Fallbacks}
	if total := st.Hits + st.Misses; total > 0 {
		cw.HitRate = float64(st.Hits) / float64(total)
		cw.ServedRate = float64(st.Hits+st.Coalesced) / float64(total)
	}
	return cw
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// ReadyResponse is the body of GET /readyz. Reason is set exactly when
// Ready is false (and the status is 503).
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// ---------------------------------------------------------------------------
// one-pass request decoding

// The decoders below accept exactly what a strict encoding/json Decoder
// (DisallowUnknownFields) accepts into these types, with the same
// result: unknown members are rejected at every level (inside a graph
// object they are skipped, as Graph.UnmarshalJSON always did), member
// names match as encoding/json matches them (exactly, else under case
// folding), a null leaves a scalar at its zero value and a pointer or
// slice nil, integers must fit their Go type, and nesting deeper than
// encoding/json's 10000 levels, counted from the top of the body, is
// rejected. One difference is deliberate: a repeated member is rejected
// (graph.ErrDuplicateMember) where encoding/json lets the last one win.
// Every decoder fills a zero value, and nothing decoded refers to the
// body's bytes, so the caller may reuse them at once. FuzzRequestDecode
// pins the contract against encoding/json.

// Member names of the decoded types, as their json tags spell them.
var (
	solveMembers   = []string{"id", "graph", "graphRef", "p", "options", "tenant", "explain"}
	optionsMembers = []string{"method", "algorithm", "engines", "verify", "noCache", "deadlineMs"}
	batchMembers   = []string{"items", "options", "workers", "tenant"}
)

// DecodeSolveBody decodes a POST /v1/solve body by its Content-Type into
// req, which must be zero. A JSON body (any type but the binary one) is a
// SolveRequest; as with encoding/json's Decoder only its first value is
// read, and bytes after it are ignored. Under application/x-lpl-graph
// the body is a binary graph frame, optionally followed by the JSON
// envelope for everything else ({"p":…, "options":…}), which must then
// be the last thing in the body and must not name a graph of its own.
func DecodeSolveBody(contentType string, body []byte, req *SolveRequest) error {
	ct := graph.MediaType(contentType)
	if ct != graph.BinaryContentType {
		r := graph.NewJSONReader(body)
		if err := readSolve(&r, req); err != nil {
			return fmt.Errorf("bad request: %w", err)
		}
		return nil
	}
	g, rest, err := graph.DecodeBody(ct, body)
	if err != nil {
		return err
	}
	if len(bytes.TrimSpace(rest)) > 0 {
		r := graph.NewJSONReader(rest)
		if err := readSolve(&r, req); err != nil {
			return fmt.Errorf("bad solve envelope after graph frame: %w", err)
		}
		if r.End() != nil {
			return errors.New("trailing data after solve envelope")
		}
		if req.Graph != nil || req.GraphRef != "" {
			return errors.New("binary solve body already carries the graph; envelope must not")
		}
	}
	req.Graph = g
	return nil
}

// DecodeBatchRequest decodes the first JSON value of a POST /v1/batch
// body into req, which must be zero; bytes after it are ignored, as with
// encoding/json's Decoder.
func DecodeBatchRequest(body []byte, req *BatchRequest) error {
	r := graph.NewJSONReader(body)
	if null, err := r.Null(); null || err != nil {
		return err
	}
	return r.Object(batchMembers, func(name string) (err error) {
		switch name {
		case "items":
			req.Items, err = readItems(&r)
		case "options":
			req.Options, err = readOptions(&r)
		case "workers":
			var v int64
			v, err = r.Int(strconv.IntSize)
			req.Workers = int(v)
		case "tenant":
			req.Tenant, err = r.Str()
		}
		return err
	})
}

// readSolve reads one SolveRequest value (null leaves req zero).
func readSolve(r *graph.JSONReader, req *SolveRequest) error {
	if null, err := r.Null(); null || err != nil {
		return err
	}
	return r.Object(solveMembers, func(name string) (err error) {
		switch name {
		case "id":
			req.ID, err = r.Str()
		case "graph":
			req.Graph, err = r.Graph()
		case "graphRef":
			req.GraphRef, err = r.Str()
		case "p":
			req.P, err = readVector(r)
		case "options":
			req.Options, err = readOptions(r)
		case "tenant":
			req.Tenant, err = r.Str()
		case "explain":
			req.Explain, err = r.Bool()
		}
		return err
	})
}

func readItems(r *graph.JSONReader) ([]SolveRequest, error) {
	if null, err := r.Null(); null || err != nil {
		return nil, err
	}
	items := []SolveRequest{}
	err := r.Array(func() error {
		items = append(items, SolveRequest{})
		return readSolve(r, &items[len(items)-1])
	})
	return items, err
}

func readOptions(r *graph.JSONReader) (*WireOptions, error) {
	if null, err := r.Null(); null || err != nil {
		return nil, err
	}
	o := new(WireOptions)
	return o, r.Object(optionsMembers, func(name string) (err error) {
		switch name {
		case "method":
			o.Method, err = r.Str()
		case "algorithm":
			o.Algorithm, err = r.Str()
		case "engines":
			o.Engines, err = readStrings(r)
		case "verify":
			var null bool
			if null, err = r.Null(); null || err != nil {
				return err
			}
			o.Verify = new(bool)
			*o.Verify, err = r.Bool()
		case "noCache":
			o.NoCache, err = r.Bool()
		case "deadlineMs":
			o.DeadlineMs, err = r.Int(64)
		}
		return err
	})
}

func readVector(r *graph.JSONReader) (labeling.Vector, error) {
	if null, err := r.Null(); null || err != nil {
		return nil, err
	}
	p := labeling.Vector{}
	err := r.Array(func() error {
		v, err := r.Int(strconv.IntSize)
		p = append(p, int(v))
		return err
	})
	return p, err
}

func readStrings(r *graph.JSONReader) ([]string, error) {
	if null, err := r.Null(); null || err != nil {
		return nil, err
	}
	out := []string{}
	err := r.Array(func() error {
		v, err := r.Str()
		out = append(out, v)
		return err
	})
	return out, err
}
