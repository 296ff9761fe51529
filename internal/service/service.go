// Package service implements lplserve's HTTP layer: a long-lived
// concurrent L(p)-labeling service multiplexing the planner pipeline, the
// server's own solve cache, and a bounded worker pool across requests.
//
// Endpoints:
//
//	POST /v1/solve   one instance  → JSON SolveResponse with
//	                 method/plan/cache provenance
//	POST /v1/batch   many instances → NDJSON stream of SolveResponse
//	                 lines in completion order (core.SolveBatch underneath)
//	POST /v1/graphs  intern a graph once (JSON, DIMACS text, or the binary
//	                 wire form) → its graphRef; later solves naming the
//	                 ref skip parsing, construction, and hashing
//	GET  /v1/stats   queue occupancy, admission counters, cache hit rate,
//	                 intern-store counters, per-method solve counts, and
//	                 the fault-containment block (panics, watchdog kills,
//	                 quarantine state) — all of this server only
//	GET  /healthz    liveness (is the process able to run a handler)
//	GET  /readyz     readiness (should this instance receive traffic);
//	                 503 with a JSON reason while the admission queue is
//	                 near saturation or quarantine trips are elevated
//
// Transports: /v1/solve and /v1/graphs additionally accept Content-Type
// application/x-lpl-graph — the graph package's length-prefixed binary
// frame; on /v1/solve the JSON envelope for p and options follows the
// frame in the same body (graph.DecodeBinary returns the remainder).
// Solve and batch requests may replace their "graph" member with
// "graphRef": a fingerprint previously returned by /v1/graphs, resolved
// against a bounded sharded-LRU intern store (unknown or evicted refs
// fail with 404 and code "unknownGraphRef").
//
// Admission: every job (a solo request or one batch item) must win a
// ticket from a bounded admission queue before it is allowed to wait for
// a worker. Waiting jobs are granted worker slots earliest-deadline-
// first (Config.Sched "edf", the default; "fifo" restores arrival
// order), so a request with 50ms of budget left is not stuck behind one
// with 30s of slack. When the queue is full the scheduler sheds only
// load that provably cannot meet its deadline — an arrival (or a queued
// job) whose learned service-time prediction exceeds its remaining
// budget — and otherwise rejects with 429 and a Retry-After hint
// computed from the real drain schedule. Per-tenant quotas (the
// X-Lpl-Tenant header or the request's tenant field) cap the share of
// the queue one named tenant may hold. Admitted jobs then draw from one
// shared pool of Workers solver slots — solo requests hold a slot for
// the duration of their solve, and batch pool workers claim one per
// item just before solving — so total solve concurrency stays at
// Workers no matter how many requests are streaming at once.
//
// Deadlines and cancellation: a request's deadlineMs maps onto
// core.Options.Deadline (clamped to the server's MaxDeadline), and the
// request context is threaded into the solver, so a client disconnect
// cancels the solve at the engines' cooperative checkpoints; anytime
// engines still deliver their best-so-far labeling on batch streams.
// When requests coalesce, cancellation is reference counted: the shared
// solve stops only when its last interested request is gone, a request
// whose departure is what stops it inherits the anytime best-so-far
// result, and a request whose deadline fires while others keep the
// solve alive gets 408 rather than blocking past its deadline.
//
// All of a server's requests share its one memoization cache (a
// core.SolveCache — a sharded LRU fronted by singleflight coalescing,
// which also carries the server's stuck-solve watchdog and panic counts),
// so repeated instances across users are served from memory with
// cacheHit=true regardless of which endpoint they arrive on, and N
// concurrent identical requests run exactly one underlying solve
// (followers report coalesced=true). Two servers in one process share no
// cache, watchdog or counter. The NDJSON stream reuses pooled response
// structs and encoder buffers, so per item the serving layer allocates
// ~only the result itself.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lpltsp/internal/core"
	"lpltsp/internal/fault"
	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
)

// Response encoding pools: under streaming load the per-item cost of
// /v1/batch (and the per-request cost of /v1/solve) should be ~only the
// result itself, not a fresh response struct, encoder, and buffer per
// line. One encodeBuf and one SolveResponse are checked out per request
// and reused across all of its NDJSON lines; wireResultInto overwrites
// every field, so recycled structs leak nothing between requests.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encodePool = sync.Pool{New: func() any {
	b := new(encodeBuf)
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

var respPool = sync.Pool{New: func() any { return new(SolveResponse) }}

func getEncodeBuf() *encodeBuf { return encodePool.Get().(*encodeBuf) }

func putEncodeBuf(b *encodeBuf) {
	const maxRetained = 1 << 20 // don't pin pathological line buffers
	if b.buf.Cap() > maxRetained {
		return
	}
	encodePool.Put(b)
}

func putResp(r *SolveResponse) {
	*r = SolveResponse{} // drop labeling/plan references before pooling
	respPool.Put(r)
}

// encodeTo renders v as one JSON line into the pooled buffer and writes
// it to w in a single Write call. The encode itself cannot fail (the
// buffer grows); a short or failed write means the client went away.
func (b *encodeBuf) encodeTo(w http.ResponseWriter, v any) error {
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		return err
	}
	_, err := w.Write(b.buf.Bytes())
	return err
}

// Config tunes a Server. The zero value means defaults everywhere.
type Config struct {
	// Workers bounds concurrently running solves across the whole server:
	// solo requests and every batch item draw from one shared slot pool,
	// so concurrent batches cannot multiply the budget. Default: half of
	// GOMAXPROCS (each solve already fans out internally).
	Workers int
	// QueueDepth bounds jobs in the system (waiting + running); beyond it
	// requests get 429. Default 256.
	QueueDepth int
	// Sched selects the admission policy: "edf" (the default) grants
	// worker slots earliest-deadline-first and, at 429-time, sheds only
	// load that provably cannot meet its deadline; "fifo" restores pure
	// arrival-order scheduling (no shedding, no deadline awareness).
	Sched string
	// TenantQuota caps the fraction of QueueDepth any one named tenant
	// (X-Lpl-Tenant header / tenant field) may occupy at once, so a
	// heavy user cannot starve the rest. 0 = default 0.5; negative
	// disables quotas. Anonymous requests are never quota-capped.
	TenantQuota float64
	// MaxDeadline clamps per-request deadlines; requests asking for more
	// (or for none) get this much. 0 = no clamp.
	MaxDeadline time.Duration
	// DefaultDeadline applies when a request carries no deadline. 0 = none.
	DefaultDeadline time.Duration
	// MaxVertices rejects larger instances with 413 before queueing.
	// Default 4096; ≤ 0 keeps the default (use a huge value to disable).
	MaxVertices int
	// MaxBodyBytes bounds a request body. Default 64 MiB.
	MaxBodyBytes int64
	// GraphStoreCapacity bounds the graph intern store behind /v1/graphs
	// (entries, LRU-evicted). Default intern.DefaultCapacity; negative
	// disables interning (POST /v1/graphs still returns refs, every
	// graphRef solve 404s).
	GraphStoreCapacity int
	// Cache is this server's solve cache: its L1, singleflight flights,
	// stuck-solve watchdog and panic counts, reported by /v1/stats. Pass
	// one to size it or to install an L2 tier (cluster peer fill). Nil
	// builds a core.DefaultCacheCapacity cache of the server's own; a
	// server never uses the library's default cache.
	Cache *core.SolveCache
	// QuarantineThreshold is K: containment failures (engine panics,
	// watchdog kills) of one (graph fingerprint, options) key before
	// identical requests are fast-failed with 422 code "quarantined".
	// 0 = fault.DefaultThreshold; negative disables the quarantine.
	QuarantineThreshold int
	// QuarantineTTL is the quarantine's failure-memory window and
	// sentence length. 0 = fault.DefaultTTL.
	QuarantineTTL time.Duration
	// WatchdogGrace arms the stuck-solve watchdog of this server's
	// cache: a deadline-bearing solve that is still running at grace ×
	// its deadline (cooperative cancellation ignored) is force-failed
	// with 408 code "stuckSolve". 0 leaves the cache's watchdog as it is
	// (disarmed on a new cache).
	WatchdogGrace float64
	// ReadyHighWater is the queue-occupancy fraction of QueueDepth at
	// which GET /readyz starts reporting 503 (drain me). Default 0.9.
	ReadyHighWater float64
	// ReadyMaxTrips: /readyz also reports 503 while the quarantine
	// tripped at least this many times within ReadyTripWindow. Default 3;
	// negative disables the trip-rate signal.
	ReadyMaxTrips int
	// ReadyTripWindow is the trailing window for ReadyMaxTrips.
	// Default 1 minute.
	ReadyTripWindow time.Duration
}

const (
	defaultQueueDepth   = 256
	defaultMaxVertices  = 4096
	defaultMaxBodyBytes = 64 << 20

	// Admission policies (Config.Sched).
	schedEDF  = "edf"
	schedFIFO = "fifo"
	// defaultTenantQuota is the fraction of QueueDepth one named tenant
	// may hold when Config.TenantQuota is unset.
	defaultTenantQuota = 0.5
)

// TenantHeader names the request header carrying the tenant identity
// for quota accounting; the body's "tenant" field takes precedence.
const TenantHeader = "X-Lpl-Tenant"

// Server is the lplserve HTTP handler. Create with NewServer; the zero
// value is not usable.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	start  time.Time
	graphs *intern.Store

	// sched owns admission, the ready queue, and the worker slots: every
	// job (solo request or batch item) is admitted, granted a slot in
	// deadline order, and finished exactly once through it.
	sched *scheduler
	// costs is this server's learned cost model: solves feed it via
	// core.Options.CostModel, and the serving layer additionally records
	// whole-request service times under core.CostServiceKey for the
	// scheduler's shed decisions and the Retry-After drain estimate.
	costs *core.CostModel

	admitted atomic.Int64
	rejected atomic.Int64
	failed   atomic.Int64
	// methods counts successful solves per planner route
	// (core.MethodName → *atomic.Int64); /v1/stats reports their sum as
	// solved, so the two always agree.
	methods sync.Map

	// quarantine fast-fails instances that keep crashing or wedging
	// (nil when disabled by config).
	quarantine *fault.Quarantine
	// ewmaNs tracks recent per-solve service time (EWMA, nanoseconds)
	// for the Retry-After drain-rate hint.
	ewmaNs atomic.Int64
	// Fault counters surfaced in /v1/stats: panics stopped at the HTTP
	// boundary, contained engine panics, and watchdog force-fails seen
	// by this server's requests.
	handlerPanics atomic.Int64
	enginePanics  atomic.Int64
	stuckSolves   atomic.Int64
}

func defaultWorkers() int {
	// Mirror core.SolveBatch's sizing logic: each solve fans out
	// internally, so one worker per two logical CPUs.
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	return n
}

// NewServer builds the handler. cfg may be nil for all defaults.
func NewServer(cfg *Config) *Server {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = defaultMaxVertices
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.GraphStoreCapacity == 0 {
		c.GraphStoreCapacity = intern.DefaultCapacity
	} else if c.GraphStoreCapacity < 0 {
		c.GraphStoreCapacity = 0
	}
	if c.ReadyHighWater <= 0 || c.ReadyHighWater > 1 {
		c.ReadyHighWater = 0.9
	}
	if c.ReadyMaxTrips == 0 {
		c.ReadyMaxTrips = 3
	} else if c.ReadyMaxTrips < 0 {
		c.ReadyMaxTrips = 0
	}
	if c.ReadyTripWindow <= 0 {
		c.ReadyTripWindow = time.Minute
	}
	if c.Sched != schedFIFO {
		c.Sched = schedEDF
	}
	if c.Cache == nil {
		c.Cache = core.NewSolveCache(core.DefaultCacheCapacity)
	}
	quota := 0
	if c.TenantQuota >= 0 {
		frac := c.TenantQuota
		if frac == 0 {
			frac = defaultTenantQuota
		}
		if frac > 1 {
			frac = 1
		}
		quota = int(math.Ceil(frac * float64(c.QueueDepth)))
		if quota < 1 {
			quota = 1
		}
	}
	s := &Server{
		cfg:    c,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		graphs: intern.NewStore(c.GraphStoreCapacity),
		sched:  newScheduler(c.Sched == schedEDF, c.Workers, c.QueueDepth, quota),
		costs:  core.NewCostModel(),
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("HEAD /v1/graphs/{ref}", s.handleGraphHead)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.armFaultLayer()
	return s
}

// ServeHTTP dispatches to the endpoint handlers under the last-resort
// recover boundary: whatever slips past the solver-side guards (or
// panics in the handlers themselves) is stopped here — the request gets
// a 500 with code "panic" when the response was still unwritten, and the
// process serves on either way.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gw := &guardedWriter{ResponseWriter: w}
	defer func() {
		if v := recover(); v != nil {
			s.handlerPanics.Add(1)
			if !gw.wrote {
				jsonErrorCode(gw, http.StatusInternalServerError, codeHandlerPanic,
					"internal error: handler panicked: %v", v)
			}
		}
	}()
	s.mux.ServeHTTP(gw, r)
}

// tenantOf resolves a request's tenant identity: the body field wins,
// the X-Lpl-Tenant header backs it up, empty means anonymous (exempt
// from quotas, untracked in per-tenant stats).
func tenantOf(r *http.Request, field string) string {
	if field != "" {
		return field
	}
	return r.Header.Get(TenantHeader)
}

// jobSpecFor builds one job's admission record: its absolute deadline
// (zero when the request has none) and the learned whole-request
// service-time prediction (0 while the model is cold — never provably
// infeasible, so a cold server sheds nothing).
func (s *Server) jobSpecFor(now time.Time, req *SolveRequest, opts *core.Options) jobSpec {
	sp := jobSpec{}
	if opts.Deadline > 0 {
		sp.deadline = now.Add(opts.Deadline)
	}
	_, pmax := req.P.MinMax()
	if pred, ok := s.costs.Predict(core.CostServiceKey, req.Graph.N(), req.Graph.M(), 0, pmax); ok {
		sp.predNs = int64(pred)
	}
	return sp
}

// observeRequestCost feeds a completed request's wall time into the
// service-level predictor (admission-time features: diameter unknown
// before the probe, recorded as 0). Failures are skipped — their wall
// time measures the error path, not the workload.
func (s *Server) observeRequestCost(req *SolveRequest, elapsed time.Duration, err error) {
	if err != nil {
		return
	}
	_, pmax := req.P.MinMax()
	s.costs.Observe(core.CostServiceKey, req.Graph.N(), req.Graph.M(), 0, pmax, elapsed)
}

// missedDeadline classifies a finished job against its absolute
// deadline: a deadline-class failure, or any completion after the
// deadline passed. Truncated successes delivered in time are not
// misses — the anytime contract delivered what it promised.
func missedDeadline(deadline time.Time, err error) bool {
	if deadline.IsZero() {
		return false
	}
	if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, core.ErrSolveStuck)) {
		return true
	}
	return time.Now().After(deadline)
}

// admit claims queue capacity for every spec (a solo request has one)
// or, when the scheduler refuses, writes the 429 and counts all of them
// as rejected.
func (s *Server) admit(w http.ResponseWriter, tenant string, specs []jobSpec) ([]*schedJob, bool) {
	jobs, err := s.sched.admit(tenant, specs)
	if err != nil {
		s.rejected.Add(int64(len(specs)))
		s.replyError(w, err, "%v", err)
		return nil, false
	}
	s.admitted.Add(int64(len(jobs)))
	return jobs, true
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	jsonErrorCode(w, status, "", format, args...)
}

// jsonErrorCode is jsonError with a machine-readable error code
// ("unknownGraphRef", "enginePanic", …) carried alongside the message.
// 429 responses go through Server.replyError instead, which adds the
// Retry-After hint computed from the drain schedule.
func jsonErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(SolveResponse{Code: code, Error: fmt.Sprintf(format, args...)})
}

// codeUnknownGraphRef marks a solve naming a ref the intern store does
// not hold (never interned, or evicted): re-submit via POST /v1/graphs.
const codeUnknownGraphRef = "unknownGraphRef"

// Scheduling error codes (all on 429 responses).
const (
	// codeTenantQuota: the named tenant already holds its quota of the
	// admission queue; other tenants' traffic is unaffected.
	codeTenantQuota = "tenantQuota"
	// codeInfeasible: rejected at admission because the predicted
	// service time exceeds the request's remaining deadline budget.
	codeInfeasible = "infeasible"
	// codeShed: admitted, then evicted from the queue when the deadline
	// became provably unmeetable and the capacity was needed for
	// feasible work.
	codeShed = "shed"
)

// errorReply maps an admission, scheduling or solver error onto the
// status and code it is served with; every such error response and
// every batch error line goes through it. A watchdog force-fail is the
// deadline enforced against an engine that ignored cancellation, so it
// answers 408 like the client's own deadline or disconnect; an
// applicability error (a pinned method whose hypotheses fail) is the
// request's fault.
func errorReply(err error) (status int, code string) {
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, ""
	case errors.Is(err, errTenantQuota):
		return http.StatusTooManyRequests, codeTenantQuota
	case errors.Is(err, errInfeasible):
		return http.StatusTooManyRequests, codeInfeasible
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests, codeShed
	case errors.Is(err, core.ErrSolveStuck):
		return http.StatusRequestTimeout, codeStuckSolve
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, ""
	case errors.Is(err, core.ErrEnginePanic):
		return http.StatusInternalServerError, codeEnginePanic
	case errors.Is(err, core.ErrDisconnected),
		errors.Is(err, core.ErrDiameterExceedsK),
		errors.Is(err, core.ErrConditionViolated),
		errors.Is(err, core.ErrMethodNotApplicable):
		return http.StatusUnprocessableEntity, ""
	}
	return http.StatusInternalServerError, ""
}

// replyError writes err's error response: the status and code errorReply
// maps it to, the message built from format and args, and on a 429 the
// Retry-After hint computed from the drain schedule.
func (s *Server) replyError(w http.ResponseWriter, err error, format string, args ...any) {
	status, code := errorReply(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	jsonErrorCode(w, status, code, format, args...)
}

// Request bodies are read into pooled buffers. The decoders copy every
// string out and build graphs from pairs, so no request refers to its
// buffer once the body is decoded, and the buffer goes straight back.
type bodyBuf struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// maxRetainedBody caps the buffers the pool keeps, and the size a
// Content-Length header may pre-size one to: the header alone cannot
// make the server allocate a large buffer before any bytes arrive.
const maxRetainedBody = 1 << 20

func putBody(b *bodyBuf) {
	if cap(b.b) > maxRetainedBody {
		return
	}
	bodyPool.Put(b)
}

// readBody reads the request body under the server's byte limit into a
// pooled buffer, writing the 413/400 response itself on failure. The
// caller hands the buffer back with putBody once the body is decoded.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bodyBuf, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	b := bodyPool.Get().(*bodyBuf)
	// One byte past the body leaves room for the read that sees EOF.
	if size := min(r.ContentLength+1, s.cfg.MaxBodyBytes+1, maxRetainedBody); size > int64(cap(b.b)) {
		b.b = make([]byte, 0, size)
	}
	buf := b.b[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			b.b = buf
			putBody(b)
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				jsonError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			} else {
				jsonError(w, http.StatusBadRequest, "bad request: %v", err)
			}
			return nil, false
		}
	}
	b.b = buf
	return b, true
}

// handleGraphs serves POST /v1/graphs: parse the body as a bare graph —
// binary frame (Content-Type application/x-lpl-graph), raw DIMACS text
// (text/*), or the JSON wire form (default) — intern it, and return its
// graphRef for later solves.
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	g, rest, err := graph.DecodeBody(r.Header.Get("Content-Type"), body.b)
	putBody(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(rest) != 0 {
		jsonError(w, http.StatusBadRequest, "%d trailing bytes after graph frame", len(rest))
		return
	}
	if s.cfg.MaxVertices > 0 && g.N() > s.cfg.MaxVertices {
		jsonError(w, http.StatusRequestEntityTooLarge,
			"graph has %d vertices, server limit is %d", g.N(), s.cfg.MaxVertices)
		return
	}
	ref, reinterned := s.graphs.Put(g)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(GraphsResponse{GraphRef: ref, N: g.N(), M: g.M(), Reinterned: reinterned})
}

// handleGraphHead serves HEAD /v1/graphs/{ref}: a body-less existence
// probe for a fingerprint — 200 with X-Lpl-N / X-Lpl-M size headers when
// the ref is interned, 404 when it was never interned or has been
// evicted, 400 for a malformed ref. Clients (and the cluster peer-fill
// path) use it to decide whether a graphRef solve will resolve without
// re-POSTing the whole body on 404.
func (s *Server) handleGraphHead(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	if !intern.ValidRef(ref) {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	g, ok := s.graphs.Get(ref)
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.Header().Set("X-Lpl-N", fmt.Sprint(g.N()))
	w.Header().Set("X-Lpl-M", fmt.Sprint(g.M()))
	w.WriteHeader(http.StatusOK)
}

// decodeSolve reads a /v1/solve body into a pooled buffer and decodes it
// in one pass (DecodeSolveBody): the JSON SolveRequest, or — under
// Content-Type application/x-lpl-graph — a binary graph frame followed by
// the JSON envelope for everything else ({"p":…, "options":…}), which
// skips the dominant cost of large solve bodies (the edge-list JSON)
// entirely. Any decode error is a 400.
func (s *Server) decodeSolve(w http.ResponseWriter, r *http.Request, req *SolveRequest) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	err := DecodeSolveBody(r.Header.Get("Content-Type"), body.b, req)
	putBody(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// prepare readies one solve for admission: a /v1/solve body (item -1,
// defaults nil) or batch item number item, whose options default to the
// batch's. It resolves a graphRef against the intern store — one
// sharded-LRU lookup, no parsing or hashing — validates (413 for the
// size gate, 400 otherwise), fast-fails a quarantined instance (422) and
// builds the solve options. It returns the options and the quarantine
// key, or nil options after writing the error response; a batch item's
// errors carry its " (item i, id "x")" label.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, req *SolveRequest, defaults *WireOptions, item int) (*core.Options, string) {
	label := func() string {
		if item < 0 {
			return ""
		}
		return fmt.Sprintf(" (item %d, id %q)", item, req.ID)
	}
	if req.GraphRef != "" {
		if req.Graph != nil {
			jsonError(w, http.StatusBadRequest, "invalid request%s: both graph and graphRef set", label())
			return nil, ""
		}
		if !intern.ValidRef(req.GraphRef) {
			jsonError(w, http.StatusBadRequest, "invalid request%s: malformed graphRef %q", label(), req.GraphRef)
			return nil, ""
		}
		g, ok := s.graphs.Get(req.GraphRef)
		if !ok {
			jsonErrorCode(w, http.StatusNotFound, codeUnknownGraphRef,
				"unknown graphRef %q%s: not interned or evicted; re-submit via POST /v1/graphs", req.GraphRef, label())
			return nil, ""
		}
		req.Graph = g
	}
	if err := req.validate(s.cfg.MaxVertices); err != nil {
		status := http.StatusBadRequest
		if req.tooLarge(s.cfg.MaxVertices) {
			status = http.StatusRequestEntityTooLarge
		}
		jsonError(w, status, "invalid request%s: %v", label(), err)
		return nil, ""
	}
	qkey := quarantineKey(req)
	if s.quarantine != nil {
		if reason, bad := s.quarantine.Check(qkey); bad {
			jsonErrorCode(w, http.StatusUnprocessableEntity, codeQuarantined,
				"instance quarantined%s: failed repeatedly (%s); retry after the quarantine TTL or change options", label(), reason)
			return nil, ""
		}
	}
	o := req.Options
	if o == nil {
		o = defaults
	}
	opts := o.toOptions(s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	opts.Cache = s.cfg.Cache
	opts.CostModel = s.costs
	// A request that arrived through the peer-fill protocol must not be
	// forwarded again: the sender already decided this node owns the key,
	// so a ring disagreement degrades to a local solve, not a forwarding
	// loop.
	opts.DisableL2 = r.Header.Get(PeerFillHeader) != ""
	return opts, qkey
}

// handleSolve serves POST /v1/solve: decode → validate → admit (429 on a
// full queue) → wait for a solver slot → solve under the request context
// → respond.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !s.decodeSolve(w, r, &req) {
		return
	}
	opts, qkey := s.prepare(w, r, &req, nil, -1)
	if opts == nil {
		return
	}

	tenant := tenantOf(r, req.Tenant)
	spec := s.jobSpecFor(time.Now(), &req, opts)
	jobs, ok := s.admit(w, tenant, []jobSpec{spec})
	if !ok {
		return
	}
	j := jobs[0]
	defer s.sched.finish(j)

	// Wait in the ready queue for a worker slot (earliest deadline
	// first); a disconnect while queued abandons the job without ever
	// starting it, and under load the scheduler may shed this job if its
	// deadline becomes provably unmeetable.
	if err := s.sched.acquire(r.Context(), j); err != nil {
		if errors.Is(err, errShed) {
			s.replyError(w, err, "shed while queued: %v", err)
		} else {
			s.replyError(w, err, "client went away while queued")
		}
		return
	}

	// Chaos injection site for the HTTP layer itself (no-op unless a
	// fault plan is armed); a panic here exercises the ServeHTTP recover.
	fault.Visit(r.Context(), fault.SiteServiceSolve)

	t0 := time.Now()
	res, err := core.SolveContext(r.Context(), req.Graph, req.P, opts)
	elapsed := time.Since(t0)
	s.observeServiceTime(elapsed)
	s.observeRequestCost(&req, elapsed, err)
	s.sched.complete(j, missedDeadline(spec.deadline, err), err != nil)
	if err != nil {
		s.recordFailure(qkey, err)
		s.replyError(w, err, "solve failed: %v", err)
		return
	}
	s.countSolve(res.Method)
	// The compact binary transport (peer fill, and any client that asks):
	// Accept: application/x-lpl-result receives the result as an LPR1
	// frame instead of the JSON SolveResponse.
	if acceptsResultFrame(r) {
		w.Header().Set("Content-Type", core.ResultContentType)
		w.Write(core.AppendResultFrame(nil, res))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	resp := respPool.Get().(*SolveResponse)
	defer putResp(resp)
	wireResultInto(resp, req.ID, res, time.Since(t0), req.Explain)
	eb := getEncodeBuf()
	defer putEncodeBuf(eb)
	eb.encodeTo(w, resp)
}

// acceptsResultFrame reports whether the request negotiates the binary
// LPR1 result transport. The Accept header may be a list with quality
// parameters ("application/x-lpl-result, application/json;q=0.9"), so
// each member is compared by media type, not by exact string equality.
func acceptsResultFrame(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if graph.MediaType(part) == core.ResultContentType {
			return true
		}
	}
	return false
}

// PeerFillHeader marks a /v1/solve request that was forwarded by the
// cluster peer-fill protocol (internal/cluster): the receiving node
// solves locally and never consults its own L2, so a misconfigured ring
// cannot forward forever.
const PeerFillHeader = "X-Lpl-Peer-Fill"

// handleBatch serves POST /v1/batch: all items are admitted up front (or
// the whole batch is rejected with 429 — partial admission would deliver
// a silently shrunken stream), then streamed through core.SolveBatch and
// written back as NDJSON in completion order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req BatchRequest
	err := DecodeBatchRequest(body.b, &req)
	putBody(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if len(req.Items) == 0 {
		jsonError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// Every item is prepared before admission: the scheduler needs each
	// item's deadline, and once the NDJSON stream has started there is no
	// clean way to refuse one item — an invalid or quarantined item
	// rejects the whole batch.
	itemOpts := make([]*core.Options, len(req.Items))
	qkeys := make([]string, len(req.Items))
	for i := range req.Items {
		if itemOpts[i], qkeys[i] = s.prepare(w, r, &req.Items[i], req.Options, i); itemOpts[i] == nil {
			return
		}
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}

	tenant := tenantOf(r, req.Tenant)
	specs := make([]jobSpec, len(req.Items))
	now := time.Now()
	for i := range req.Items {
		specs[i] = s.jobSpecFor(now, &req.Items[i], itemOpts[i])
	}
	jobs, ok := s.admit(w, tenant, specs)
	if !ok {
		return
	}
	// Finish is idempotent, so the unconditional sweep settles whatever
	// the stream loop below did not: items the cancelled intake never
	// handed to a worker, and items whose results were consumed already.
	// Every job leaves the system exactly once either way.
	defer func() {
		for _, bj := range jobs {
			s.sched.finish(bj)
		}
	}()

	rctx := r.Context()
	items := make([]core.BatchItem, len(req.Items))
	starts := make([]time.Time, len(req.Items))
	for i := range req.Items {
		i := i
		g := req.Items[i].Graph
		items[i] = core.BatchItem{
			ID: req.Items[i].ID,
			P:  req.Items[i].P,
			// Load runs inside the worker just before solving — the hook
			// that moves this job from "queued" to "in flight". It blocks
			// for a worker slot through the scheduler, so concurrent batch
			// requests (and their option-group pools) share one Workers
			// budget with solo traffic in deadline order; the slot is
			// returned when the item's result is consumed below. An
			// acquire error (disconnect while queued, or shed) becomes the
			// item's error line.
			Load: func() (*graph.Graph, error) {
				if err := s.sched.acquire(rctx, jobs[i]); err != nil {
					return nil, err
				}
				starts[i] = time.Now()
				return g, nil
			},
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// One pooled response struct and encoder buffer serve every line of
	// this stream; per item the loop allocates ~only what the solver
	// returned.
	line := respPool.Get().(*SolveResponse)
	defer putResp(line)
	eb := getEncodeBuf()
	defer putEncodeBuf(eb)

	// Items may carry different options; core.SolveBatch applies one
	// Options to all, so run one pool per distinct option set — in the
	// common case (shared options) that is exactly one pool. Grouping is
	// by rendered option value: pointer identity would split equal
	// options into needless pools. Groups run concurrently (splitting the
	// worker budget) with their streams merged, so one slow group cannot
	// stall another's completed results.
	groups := groupByOptions(itemOpts)
	perGroup := workers / len(groups)
	if perGroup < 1 {
		perGroup = 1
	}
	type tagged struct {
		idx int // index into req.Items
		br  core.BatchResult
	}
	merged := make(chan tagged)
	var pools sync.WaitGroup
	for _, idxs := range groups {
		idxs := idxs
		batchItems := make([]core.BatchItem, len(idxs))
		for j, idx := range idxs {
			batchItems[j] = items[idx]
		}
		stream := core.SolveBatch(r.Context(), batchItems, &core.BatchOptions{
			Workers: perGroup,
			Options: itemOpts[idxs[0]],
		})
		pools.Add(1)
		go func() {
			defer pools.Done()
			for br := range stream {
				merged <- tagged{idx: idxs[br.Index], br: br}
			}
		}()
	}
	go func() {
		pools.Wait()
		close(merged)
	}()

	// Read until close even after a write failure or cancellation — the
	// SolveBatch contract — so the counters reconcile exactly. Items the
	// cancelled intake never handed to a worker produce no BatchResult
	// at all; the deferred finish sweep settles those.
	clientGone := false
	for tg := range merged {
		idx, br := tg.idx, tg.br
		// Return the item's worker slot (or queue position) the moment
		// its result is consumed; the deferred sweep skips it (finish is
		// idempotent). starts[idx] is safe to read here: the worker wrote
		// it before sending this result (channel happens-before).
		s.sched.finish(jobs[idx])
		loaded := !starts[idx].IsZero()
		if !errors.Is(br.Err, errShed) {
			// Shed items were already settled under the sheds counter;
			// everything else records a per-tenant outcome.
			s.sched.complete(jobs[idx], missedDeadline(specs[idx].deadline, br.Err), br.Err != nil)
		}
		if br.Err != nil {
			s.recordFailure(qkeys[idx], br.Err)
			_, code := errorReply(br.Err)
			*line = SolveResponse{ID: br.ID, Code: code, Error: br.Err.Error()}
		} else {
			s.countSolve(br.Result.Method)
			var elapsed time.Duration
			if loaded {
				elapsed = time.Since(starts[idx])
				s.observeServiceTime(elapsed)
				s.observeRequestCost(&req.Items[idx], elapsed, nil)
			}
			wireResultInto(line, br.ID, br.Result, elapsed, req.Items[idx].Explain)
		}
		if clientGone {
			continue
		}
		if err := eb.encodeTo(w, line); err != nil {
			clientGone = true
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// groupByOptions partitions item indices into runs sharing an option
// value, preserving order inside each group.
func groupByOptions(opts []*core.Options) [][]int {
	keys := map[string]int{}
	var groups [][]int
	for i, o := range opts {
		k := fmt.Sprintf("%v|%v|%v|%v|%v|%v|%v",
			o.Method, o.Algorithm, o.Engines, o.Verify, o.NoCache, o.Deadline, o.Chained)
		gi, ok := keys[k]
		if !ok {
			gi = len(groups)
			keys[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// countSolve counts one successful solve under the route that produced
// it. After a route's first solve this is one lock-free map load and one
// atomic add.
func (s *Server) countSolve(m core.MethodName) {
	n, ok := s.methods.Load(m)
	if !ok {
		n, _ = s.methods.LoadOrStore(m, new(atomic.Int64))
	}
	n.(*atomic.Int64).Add(1)
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	methods := map[string]int64{}
	var solved int64
	s.methods.Range(func(k, v any) bool {
		n := v.(*atomic.Int64).Load()
		methods[string(k.(core.MethodName))] = n
		solved += n
		return true
	})
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Ready:         s.notReadyReason() == "",
		Queued:        s.sched.queued.Load(),
		InFlight:      s.sched.inFlight.Load(),
		QueueDepth:    s.cfg.QueueDepth,
		Admitted:      s.admitted.Load(),
		Rejected:      s.rejected.Load(),
		Solved:        solved,
		Failed:        s.failed.Load(),
		Cache:         wireCache(s.cfg.Cache.Stats()),
		Graphs:        wireIntern(s.graphs.Stats()),
		Methods:       methods,
		Fault:         s.faultStats(),
		Sched: SchedWire{
			Policy:             s.cfg.Sched,
			TenantQuotaJobs:    s.sched.quota,
			Sheds:              s.sched.sheds.Load(),
			InfeasibleRejected: s.sched.infeasible.Load(),
			QuotaRejected:      s.sched.quotaRejs.Load(),
			DeadlineMisses:     s.sched.misses.Load(),
			Tenants:            s.sched.tenantsSnapshot(),
		},
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleHealth serves GET /healthz: pure liveness, 200 while the process
// can run a handler at all — readiness lives at /readyz. no-store keeps
// probes and intermediaries from acting on a stale verdict.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(HealthResponse{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()})
}
