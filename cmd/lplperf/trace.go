package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/labeling"
	"lpltsp/internal/service"
	"lpltsp/internal/tsp"
)

// The traced run replays requests one at a time against a fresh
// topology and, around each, calls the layers' public functions on the
// same input, recording one span per call. Spans are kept in memory and
// written out when the run ends. A span's self time is its duration minus
// the time its children cover: the sum of their durations, except that
// the engines of one race run concurrently and cover their union.

// span is one timed interval of a traced request.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch   time.Time
	spans   []span
	covered []int64 // per span: time its children account for
	trace   int
	store   *intern.Store // the benchmark's own intern store (intern spans)
	ownerNs atomic.Int64  // backend ServeHTTP time within the current request
	lost    float64       // engine time of races' losers
	raced   float64       // engine time of all racers
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span and charges its duration to its parent.
func (t *tracer) add(parent int, name string, start, end int64) int {
	id := t.addFree(parent, name, start, end)
	if parent > 0 {
		t.covered[parent-1] += end - start
	}
	return id
}

// addFree records a span without charging its parent.
func (t *tracer) addFree(parent int, name string, start, end int64) int {
	end = max(end, start)
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	t.covered = append(t.covered, 0)
	return len(t.spans)
}

// timed runs f as a span under parent.
func (t *tracer) timed(parent int, name string, f func() error) (int, int64, error) {
	s := t.now()
	err := f()
	e := t.now()
	return t.add(parent, name, s, e), e - s, err
}

// ownerTimer wraps a backend so the tracer learns how long the owner
// spent on a routed request; the rest of the router's time is the hop.
func (t *tracer) ownerTimer(_ int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := time.Now()
		h.ServeHTTP(w, r)
		t.ownerNs.Add(int64(time.Since(s)))
	})
}

// solveOptions mirrors what the server hands core for a request: verified,
// clamped to lplserve's 30 s max deadline.
func solveOptions(deadline time.Duration) *core.Options {
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	return &core.Options{Verify: true, Deadline: deadline}
}

// request traces one request end to end.
func (t *tracer) request(e *env, q *request) error {
	t.trace++
	t.ownerNs.Store(0)
	var before core.CacheStats
	if q.backend >= 0 {
		before = e.caches[q.backend].Stats()
	}
	h, req, rec := e.handler(q), q.httpRequest(), &recorder{hdr: http.Header{}}
	s := t.now()
	h.ServeHTTP(rec, req)
	end := t.now()
	root := t.addFree(0, "request", s, end)
	status, body := rec.code(), rec.buf.Bytes()
	v := check(q, status, body)
	if v.invalid {
		return fmt.Errorf("traced %s request: %s", kindNames[q.kind], v.why)
	}
	if !v.ok {
		return nil // a failed request has no layer work to attribute
	}
	routed := e.router != nil && q.backend < 0
	if routed {
		hop := end - s - t.ownerNs.Load()
		t.add(root, "cluster.hop", s, s+hop)
	}
	ctx := context.Background()
	var deadline time.Duration
	if q.kind == kindBinary {
		deadline = q.slo
	}
	opts := solveOptions(deadline)
	cache := func() *core.SolveCache {
		if q.backend >= 0 {
			return e.caches[q.backend]
		}
		if routed {
			owner := e.router.Ring().Owner(q.ref)
			i, _ := strconv.Atoi(strings.TrimPrefix(owner, "b"))
			return e.caches[i]
		}
		return e.caches[0]
	}
	// answer attributes how an item was answered: a peer-fill consult, a
	// cache hit, or a solve through the planner.
	answer := func(g *graph.Graph, resp *service.SolveResponse) error {
		if q.backend >= 0 && e.caches[q.backend].Stats().L2Served > before.L2Served {
			pf := e.peers[q.backend]
			_, _, err := t.timed(root, "cluster.peerfill", func() error {
				_, _, err := pf.GetOrSolve(ctx, g, q.p, opts)
				return err
			})
			return err
		}
		if resp.CacheHit {
			_, _, err := t.timed(root, "core.cache_hit", func() error {
				o := *opts
				o.Cache = cache()
				_, err := core.SolveContext(ctx, g, q.p, &o)
				return err
			})
			return err
		}
		return t.solved(root, g, q.p, resp, opts)
	}
	decodeJSON := func(parent int, raw []byte) (*graph.Graph, error) {
		g := new(graph.Graph)
		_, _, err := t.timed(parent, "graph.decode.json", func() error { return g.UnmarshalJSON(raw) })
		return g, err
	}
	fingerprint := func(g *graph.Graph) {
		t.timed(root, "graph.fingerprint", func() error { g.Fingerprint(); return nil })
	}
	// The envelope and the encoding go through encoding/json the way the
	// service does: a strict Decoder, and an Encoder into a buffer.
	envelope := func(data []byte, into any) int {
		id, _, _ := t.timed(root, "service.envelope", func() error {
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			return dec.Decode(into)
		})
		return id
	}
	encode := func(v any) {
		t.timed(root, "service.encode", func() error {
			var buf bytes.Buffer
			return json.NewEncoder(&buf).Encode(v)
		})
	}
	var err error
	switch q.kind {
	case kindGraphs:
		var g *graph.Graph
		if g, err = decodeJSON(root, q.raw[0]); err != nil {
			return err
		}
		fingerprint(g)
		t.timed(root, "intern.put", func() error { t.store.Put(g); return nil })
		encode(service.GraphsResponse{GraphRef: q.ref, N: g.N(), M: g.M()})
		return nil
	case kindRef:
		envelope(q.body, new(service.SolveRequest))
		t.timed(root, "intern.get", func() error { t.store.Get(q.ref); return nil })
		err = answer(q.graphs[0], &v.resps[0])
	case kindBody:
		env := envelope(q.body, new(service.SolveRequest))
		var g *graph.Graph
		if g, err = decodeJSON(env, q.raw[0]); err != nil {
			return err
		}
		fingerprint(g)
		err = answer(g, &v.resps[0])
	case kindBinary:
		var g *graph.Graph
		var rest []byte
		t.timed(root, "graph.decode.binary", func() (err error) { g, rest, err = graph.DecodeBinary(q.body); return err })
		envelope(rest, new(service.SolveRequest))
		fingerprint(g)
		err = answer(g, &v.resps[0])
	case kindBatch:
		env := envelope(q.body, new(service.BatchRequest))
		for i, raw := range q.raw {
			g, err := decodeJSON(env, raw)
			if err != nil {
				return err
			}
			fingerprint(g)
			if err := answer(g, &v.resps[i]); err != nil {
				return err
			}
		}
	}
	if err != nil {
		return err
	}
	for i := range v.resps {
		encode(&v.resps[i])
	}
	return nil
}

// solved attributes a planner solve: APSP, planning, the reduction and
// its engine race (or the chosen method), and verification.
func (t *tracer) solved(root int, g *graph.Graph, p labeling.Vector, resp *service.SolveResponse, opts *core.Options) error {
	ctx := context.Background()
	var dm *graph.DistMatrix
	_, apsp, err := t.timed(root, "graph.apsp", func() (err error) {
		dm, err = g.AllPairsDistancesContext(ctx)
		return err
	})
	if err != nil {
		return err
	}
	// Explain and ReduceContext each run their own APSP first; the spans
	// are the rest of the call.
	s := t.now()
	if _, err := core.Explain(ctx, g, p, &core.Options{Verify: true}); err != nil {
		return err
	}
	t.add(root, "core.plan", s+apsp, t.now())
	if core.MethodName(resp.Method) == core.MethodReduction {
		s = t.now()
		red, err := core.ReduceContext(ctx, g, p)
		if err != nil {
			return err
		}
		t.add(root, "core.reduce", s+apsp, t.now())
		roster := []tsp.Algorithm{tsp.Algorithm(resp.Algorithm)}
		if resp.Algorithm == string(core.AlgoPortfolio) {
			roster = core.DefaultPortfolioEngines(g.N())
		}
		t.race(root, red, roster)
	} else {
		o := *opts
		o.Method, o.NoCache = core.MethodName(resp.Method), true
		s = t.now()
		res, err := core.SolveContext(ctx, g, p, &o)
		if err != nil {
			return err
		}
		start := s + int64(res.ReduceTime)
		t.add(root, "core.method", start, start+int64(res.SolveTime))
	}
	_, _, err = t.timed(root, "labeling.verify", func() error {
		return labeling.VerifyWithMatrix(dm, p, labeling.Labeling(resp.Labeling))
	})
	return err
}

// race runs the roster concurrently over the shared reduction, as the
// portfolio does (a proven optimum stops the rest), recording each engine
// as a span under one core.method span.
func (t *tracer) race(parent int, red *core.Reduction, roster []tsp.Algorithm) {
	type run struct {
		algo       tsp.Algorithm
		start, end int64
		cost       int64
		err        error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan run, len(roster))
	s := t.now()
	for _, a := range roster {
		go func(a tsp.Algorithm) {
			st := t.now()
			_, stats, err := tsp.SolveContext(ctx, red.Instance, a, nil)
			if err == nil && stats.Optimal && !stats.Truncated {
				cancel()
			}
			done <- run{algo: a, start: st, end: t.now(), cost: stats.Cost, err: err}
		}(a)
	}
	runs := make([]run, 0, len(roster))
	for range roster {
		runs = append(runs, <-done)
	}
	method := t.add(parent, "core.method", s, t.now())
	var winner *run
	for i := range runs {
		if r := &runs[i]; r.err == nil && (winner == nil || r.cost < winner.cost) {
			winner = r
		}
	}
	won := tsp.Algorithm("")
	if winner != nil {
		won = winner.algo
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].start < runs[j].start })
	var union, reach int64
	for i, r := range runs {
		t.addFree(method, "tsp.engine."+string(r.algo), r.start, r.end)
		d := float64(r.end - r.start)
		t.raced += d
		if r.algo != won {
			t.lost += d
		}
		if i == 0 || r.start > reach {
			union += r.end - r.start
			reach = r.end
		} else if r.end > reach {
			union += r.end - reach
			reach = r.end
		}
	}
	t.covered[method-1] += union
}

// traceResult is what a traced run adds to the record.
type traceResult struct {
	file     string
	perLayer map[string]Metric
	childMed float64 // median Σ child self time / request
}

// spanMetric maps a span name onto its per-layer metric, unit and scale.
func spanMetric(name string) (string, string, float64) {
	const us, msec = 1e3, 1e6
	switch {
	case name == "request":
		return "service.self_us", "us", us
	case name == "service.envelope":
		return "service.envelope_decode_us", "us", us
	case name == "graph.decode.json":
		return "graph.decode_us.json", "us", us
	case name == "graph.decode.binary":
		return "graph.decode_us.binary", "us", us
	case name == "core.method":
		return "core.method_ms", "ms", msec
	case strings.HasPrefix(name, "tsp.engine."):
		return "tsp.engine_ms." + strings.TrimPrefix(name, "tsp.engine."), "ms", msec
	}
	return name + "_us", "us", us
}

// summarize turns the spans into per-layer metrics: each layer's mean self
// time per span, plus the race waste and the traced coverage.
func (t *tracer) summarize() (map[string]Metric, float64) {
	type acc struct {
		sum   float64
		n     int
		unit  string
		scale float64
	}
	accs := map[string]*acc{}
	self := make([]float64, len(t.spans))
	for i, sp := range t.spans {
		self[i] = float64(max(0, sp.End-sp.Start-t.covered[i]))
		name, unit, scale := spanMetric(sp.Name)
		a := accs[name]
		if a == nil {
			a = &acc{unit: unit, scale: scale}
			accs[name] = a
		}
		a.sum += self[i]
		a.n++
		if strings.HasPrefix(sp.Name, "tsp.engine.") {
			all := accs["tsp.engine_ms"]
			if all == nil {
				all = &acc{unit: "ms", scale: 1e6}
				accs["tsp.engine_ms"] = all
			}
			all.sum += self[i]
			all.n++
		}
	}
	out := map[string]Metric{}
	for name, a := range accs {
		out[name] = Metric{Value: a.sum / float64(a.n) / a.scale, Unit: a.unit}
	}
	if t.raced > 0 {
		out["tsp.race_waste_ratio"] = Metric{Value: t.lost / t.raced, Unit: "ratio"}
	}
	// Coverage: per traced request with children, the share of the
	// request's time its descendants' self times account for.
	var shares []float64
	rootDur := map[int]float64{}
	childSelf := map[int]float64{}
	for i, sp := range t.spans {
		if sp.Parent == 0 {
			rootDur[sp.Trace] = float64(sp.End - sp.Start)
		} else {
			childSelf[sp.Trace] += self[i]
		}
	}
	for tr, c := range childSelf {
		if d := rootDur[tr]; d > 0 {
			shares = append(shares, c/d)
		}
	}
	sort.Float64s(shares)
	med := 0.0
	if len(shares) > 0 {
		med = shares[len(shares)/2]
	}
	return out, med
}

// traceWorkload runs the traced replay for one workload: a fresh topology
// whose set-up traces up to 16 requests of each kind, then the first
// w.TraceN scheduled requests one at a time.
func traceWorkload(w *WorkloadSpec, in *inputs, dir string, limit int) (*traceResult, error) {
	t := &tracer{epoch: time.Now(), store: intern.NewStore(intern.DefaultCapacity)}
	e, err := newEnv(in.clustered, t.ownerTimer)
	if err != nil {
		return nil, err
	}
	defer e.close()
	perKind := map[kind]int{}
	for i, q := range in.setup {
		if perKind[q.kind] < 16 {
			perKind[q.kind]++
			if err := t.request(e, q); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			continue
		}
		if status, body := serve(e.handler(q), q, true); !check(q, status, body).ok {
			return nil, fmt.Errorf("traced set-up %s request %d: status %d", kindNames[q.kind], i, status)
		}
	}
	// The benchmark's intern store holds what the servers' stores hold, so
	// intern.get spans look up a populated store.
	for _, q := range in.setup {
		if q.kind == kindGraphs {
			t.store.Put(q.graphs[0])
		}
	}
	replayed := 0
	for _, steps := range in.rounds {
		for _, arr := range steps {
			for i := 0; i < len(arr) && replayed < limit; i++ {
				if err := t.request(e, arr[i].req); err != nil {
					return nil, err
				}
				replayed++
			}
		}
	}
	res := &traceResult{file: filepath.Join(dir, "trace-"+w.Name+".json")}
	res.perLayer, res.childMed = t.summarize()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{w.Name, t.spans})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return res, os.WriteFile(res.file, data, 0o644)
}
