package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"time"

	"lpltsp/internal/cluster"
	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
	"lpltsp/internal/service"
)

var (
	p221 = labeling.Vector{2, 2, 1}
	p21  = labeling.Vector{2, 1}
)

// kind is a request's endpoint and transport.
type kind uint8

const (
	kindRef    kind = iota // graphRef /v1/solve
	kindBody               // full JSON body /v1/solve
	kindBinary             // binary graph frame + JSON envelope /v1/solve
	kindGraphs             // POST /v1/graphs (JSON)
	kindBatch              // /v1/batch of full JSON bodies
)

var kindNames = [...]string{"ref", "body", "binary", "graphs", "batch"}

// request is one pre-generated request plus what the benchmark needs to
// check its answer. Bodies are built before any clock starts.
type request struct {
	kind    kind
	backend int // -1: the front door (server or router); else a backend
	body    []byte
	graphs  []*graph.Graph // the instance of every item, in item order
	raw     [][]byte       // each item's graph JSON (body, batch, graphs)
	p       labeling.Vector
	ref     string
	slo     time.Duration
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and graphs are marshalled
	}
	return b
}

func refReq(g *graph.Graph, p labeling.Vector) *request {
	ref := intern.Ref(g)
	return &request{kind: kindRef, backend: -1, graphs: []*graph.Graph{g}, p: p, ref: ref,
		body: marshal(service.SolveRequest{GraphRef: ref, P: p})}
}

func bodyReq(g *graph.Graph, p labeling.Vector) *request {
	return &request{kind: kindBody, backend: -1, graphs: []*graph.Graph{g}, p: p,
		raw: [][]byte{marshal(g)}, body: marshal(service.SolveRequest{Graph: g, P: p})}
}

func graphsReq(g *graph.Graph) *request {
	raw := marshal(g)
	return &request{kind: kindGraphs, backend: -1, graphs: []*graph.Graph{g}, ref: intern.Ref(g),
		raw: [][]byte{raw}, body: raw}
}

func binaryReq(g *graph.Graph, p labeling.Vector, deadlineMs int64) *request {
	env := marshal(service.SolveRequest{P: p, Options: &service.WireOptions{DeadlineMs: deadlineMs}})
	return &request{kind: kindBinary, backend: -1, graphs: []*graph.Graph{g}, p: p,
		body: append(graph.AppendBinary(nil, g), env...), slo: time.Duration(deadlineMs) * time.Millisecond}
}

func batchReq(gs []*graph.Graph, p labeling.Vector) *request {
	q := &request{kind: kindBatch, backend: -1, graphs: gs, p: p}
	var br service.BatchRequest
	for i, g := range gs {
		br.Items = append(br.Items, service.SolveRequest{ID: fmt.Sprint(i), Graph: g, P: p})
		q.raw = append(q.raw, marshal(g))
	}
	q.body = marshal(br)
	return q
}

func smallDiam(r *rng.RNG, n int) *graph.Graph { return graph.RandomSmallDiameter(r, n, 3, 0.1) }

// zipf draws indices of n items with Zipf(s) popularity over a seeded
// random ranking.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(r *rng.RNG, n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: r.Perm(n)}
	acc := 0.0
	for k := range z.cdf {
		acc += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = acc
	}
	return z
}

func (z *zipf) draw(r *rng.RNG) int {
	u := r.Float64() * z.cdf[len(z.cdf)-1]
	return z.perm[min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)]
}

// deck deals card indices in exact proportions: each pass through the
// deck is a fresh seeded shuffle, so a run's mix matches its weights
// instead of drifting with the seed. Latency percentiles of a mix of
// request sizes jump when the mix shifts across a size boundary.
type deck struct {
	cards []int
	next  int
}

func newDeck(weights ...int) *deck {
	d := &deck{}
	for card, w := range weights {
		for i := 0; i < w; i++ {
			d.cards = append(d.cards, card)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw(r *rng.RNG) int {
	if d.next == len(d.cards) {
		r.Shuffle(d.cards)
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// traffic is one workload's request source: its set-up requests (interning
// and warm-up, in order) and a generator for measured traffic.
type traffic struct {
	clustered bool
	hot       bool // requests repeat; responses are sample-verified
	setup     []*request
	next      func(r *rng.RNG) *request
}

// sized shrinks working sets for -smoke runs.
type sized func(n int) int

func hotRef(r *rng.RNG, size sized) *traffic {
	refs := make([]*request, size(64))
	t := &traffic{hot: true}
	for i := range refs {
		g := smallDiam(r, 64)
		refs[i] = refReq(g, p221)
		t.setup = append(t.setup, graphsReq(g))
	}
	t.setup = append(t.setup, refs...)
	uniform := newDeck(ones(len(refs))...)
	t.next = func(r *rng.RNG) *request { return refs[uniform.draw(r)] }
	return t
}

func ones(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func coldSolve(r *rng.RNG, size sized) *traffic {
	// Five sizes, so the median falls inside the n=64 class and p90 inside
	// the n=96 class rather than on a boundary between two classes.
	sizes := []int{32, 48, 64, 80, 96}
	pick := newDeck(ones(len(sizes))...)
	fresh := func(r *rng.RNG) *request { return bodyReq(smallDiam(r, sizes[pick.draw(r)]), p221) }
	t := &traffic{next: fresh}
	for i := 0; i < size(24); i++ {
		t.setup = append(t.setup, fresh(r))
	}
	return t
}

func mixedDeadline(r *rng.RNG, size sized) *traffic {
	refs := make([]*request, size(128))
	t := &traffic{}
	for i := range refs {
		g := smallDiam(r, 64)
		refs[i] = refReq(g, p221)
		t.setup = append(t.setup, graphsReq(g))
	}
	t.setup = append(t.setup, refs...)
	z := newZipf(r, len(refs), 1.1)
	tight := newDeck(7, 3) // 30% of trees carry the tight deadline
	tree := func(r *rng.RNG) *request {
		deadline := []int64{1000, 100}[tight.draw(r)]
		return binaryReq(graph.RandomTree(r, 128+r.Intn(257)), p21, deadline)
	}
	batch := func(r *rng.RNG) *request {
		gs := make([]*graph.Graph, 4)
		for i := range gs {
			gs[i] = graph.RandomDiameter2(r, 10+r.Intn(4), 0.35)
		}
		return batchReq(gs, p21)
	}
	for i := 0; i < 4; i++ {
		t.setup = append(t.setup, tree(r), batch(r))
	}
	mix := newDeck(10, 2, 5, 3) // refs 50%, interning 10%, trees 25%, batches 15%
	t.next = func(r *rng.RNG) *request {
		switch mix.draw(r) {
		case 0:
			return refs[z.draw(r)]
		case 1:
			return graphsReq(smallDiam(r, 64))
		case 2:
			return tree(r)
		default:
			return batch(r)
		}
	}
	return t
}

func clusterRef(r *rng.RNG, size sized) *traffic {
	refs := make([]*request, size(768))
	bodies := make([]*request, len(refs))
	t := &traffic{clustered: true, hot: true}
	for i := range refs {
		g := smallDiam(r, 8+r.Intn(5))
		refs[i] = refReq(g, p221)
		t.setup = append(t.setup, graphsReq(g))
		// Each graph's body traffic goes to one seeded backend, and set-up
		// sends it there once, so a non-owner fills its L1 through a
		// peer-fill consult before the clock starts. Consults under
		// concurrent load can deadlock: a node's only worker slot waits on
		// a peer whose only slot waits on it, until the 2 s fill timeout.
		bodies[i] = bodyReq(g, p221)
		bodies[i].backend = r.Intn(clusterBackends)
	}
	t.setup = append(t.setup, refs...)
	t.setup = append(t.setup, bodies...)
	z := newZipf(r, len(refs), 1.1)
	mix := newDeck(17, 3) // 85% through the router, 15% bodies straight to a backend
	t.next = func(r *rng.RNG) *request {
		i := z.draw(r)
		if mix.draw(r) == 0 {
			return refs[i]
		}
		return bodies[i]
	}
	return t
}

var workloadTraffic = map[string]func(*rng.RNG, sized) *traffic{
	"hot-ref":        hotRef,
	"cold-solve":     coldSolve,
	"mixed-deadline": mixedDeadline,
	"cluster-ref":    clusterRef,
}

// qualitySet is fixed (seeded independently of -seed) so span_ratio and
// exact_ratio compare the same instances on every run.
func qualitySet() []*request {
	r := rng.New(7)
	var qs []*request
	for _, n := range []int{12, 28, 40, 64, 96} {
		qs = append(qs, bodyReq(smallDiam(r, n), p221))
	}
	for _, n := range []int{11, 13} {
		qs = append(qs, bodyReq(graph.RandomDiameter2(r, n, 0.35), p21))
	}
	return append(qs, bodyReq(graph.RandomTree(r, 200), p21))
}

// inputs is everything one workload run sends, generated from the seed
// before any clock starts. The measured part of a run is spec.Rounds
// rounds, each a closed-loop capacity window followed by the low, mid and
// high steps, so a slow stretch of a shared machine lands on every phase
// rather than on one.
type inputs struct {
	*traffic
	capacity [][]*request // per round; hot workloads share one cycled pool
	cycle    bool
	rounds   [][][]arrival // [round][step]
	quality  []*request
}

func buildInputs(spec *Spec, w *WorkloadSpec, seed uint64, seconds float64, smoke bool) *inputs {
	size := func(n int) int { return n }
	if smoke {
		size = func(n int) int { return max(2, n/16) }
	}
	r := rng.New(seed)
	in := &inputs{traffic: workloadTraffic[w.Name](r.Split(), size), quality: qualitySet()}
	slo := time.Duration(w.SLOms * float64(time.Millisecond))
	withSLO := func(q *request) *request {
		if q.slo == 0 {
			q.slo = slo
		}
		return q
	}
	gen := r.Split()
	pool := func(n int) []*request {
		p := make([]*request, n)
		for i := range p {
			p[i] = withSLO(in.next(gen))
		}
		return p
	}
	capDur := spec.phaseDuration(seconds, spec.CapacityShare)
	var hotPool []*request
	if in.hot {
		hotPool, in.cycle = pool(4096), true
	}
	for round := 0; round < spec.Rounds; round++ {
		if in.hot {
			in.capacity = append(in.capacity, hotPool)
		} else {
			// Fresh instances only, sized well past the expected demand.
			in.capacity = append(in.capacity, pool(int(w.CapacityRPS*capDur.Seconds()*3)+32))
		}
		var steps [][]arrival
		for _, st := range spec.Steps {
			dur := spec.phaseDuration(seconds, st.Share)
			// Poisson arrivals conditioned on their count: the count is
			// fixed by rate × duration and the times are uniform order
			// statistics, so the load does not vary with the seed.
			n := int(math.Round(w.RatesRPS[st.Name] * dur.Seconds()))
			arr := make([]arrival, n)
			for i := range arr {
				arr[i].at = time.Duration(gen.Float64() * float64(dur))
			}
			sort.Slice(arr, func(i, j int) bool { return arr[i].at < arr[j].at })
			for i := range arr {
				arr[i].req = withSLO(in.next(gen))
				arr[i].keep = !in.hot || gen.Intn(64) == 0
			}
			steps = append(steps, arr)
		}
		in.rounds = append(in.rounds, steps)
	}
	return in
}

const clusterBackends = 3

// env is one freshly built topology: a single server, or a router over
// clusterBackends peer-filled servers. Configuration is lplserve's and
// lplrouter's defaults (plus adaptive hedging on the router).
type env struct {
	front    http.Handler
	handlers []http.Handler // each backend as the transports see it
	servers  []*service.Server
	caches   []*core.SolveCache
	peers    []*cluster.PeerFill
	router   *cluster.Router
	prober   *cluster.Prober
}

func serverConfig(cache *core.SolveCache) *service.Config {
	return &service.Config{
		QueueDepth:    256,
		MaxDeadline:   30 * time.Second,
		MaxVertices:   4096,
		Sched:         "edf",
		WatchdogGrace: 3,
		// Each server gets its own default-sized cache so a repeated set-up
		// starts cold and the traced run can look up the server's cache.
		Cache: cache,
	}
}

// newEnv builds a topology. wrap, when non-nil, interposes on every
// backend handler as the router and peer fills reach it.
func newEnv(clustered bool, wrap func(int, http.Handler) http.Handler) (*env, error) {
	n := 1
	if clustered {
		n = clusterBackends
	}
	e := &env{}
	var backends []cluster.Backend
	for i := 0; i < n; i++ {
		c := core.NewSolveCache(core.DefaultCacheCapacity)
		s := service.NewServer(serverConfig(c))
		var h http.Handler = s
		if wrap != nil {
			h = wrap(i, s)
		}
		e.caches, e.servers, e.handlers = append(e.caches, c), append(e.servers, s), append(e.handlers, h)
		backends = append(backends, cluster.Backend{Name: fmt.Sprintf("b%d", i), Doer: cluster.HandlerDoer{Handler: h}})
	}
	if !clustered {
		e.front = e.handlers[0]
		return e, nil
	}
	breakers := cluster.BreakerConfig{Threshold: 5, Cooldown: 2 * time.Second}
	for i, b := range backends {
		pf, err := cluster.NewPeerFill(b.Name, backends, cluster.RingConfig{})
		if err != nil {
			return nil, err
		}
		pf.SetBreakers(cluster.NewBreakerSet(breakers))
		pf.SetFillTimeout(cluster.DefaultFillTimeout)
		e.caches[i].SetL2(pf)
		e.peers = append(e.peers, pf)
	}
	rt, err := cluster.NewRouter(backends, cluster.RingConfig{})
	if err != nil {
		return nil, err
	}
	rt.ConfigureBreakers(breakers)
	rt.ConfigureRetry(cluster.RetryPolicy{MaxAttempts: 3, BudgetRatio: 0.1})
	rt.EnableHedge(0)
	e.prober = cluster.NewProber(rt, cluster.ProbeConfig{Interval: time.Second, FailThreshold: 3, RecoverThreshold: 2})
	e.prober.Start()
	e.router, e.front = rt, rt
	return e, nil
}

func (e *env) close() {
	if e.prober != nil {
		e.prober.Stop()
	}
}

func (e *env) handler(q *request) http.Handler {
	if q.backend >= 0 {
		return e.handlers[q.backend]
	}
	return e.front
}

// stats sums GET /v1/stats over every server.
func (e *env) stats() (service.StatsResponse, error) {
	var sum service.StatsResponse
	for _, s := range e.servers {
		rec := &recorder{hdr: http.Header{}}
		s.ServeHTTP(rec, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/stats"}, Header: http.Header{}})
		var st service.StatsResponse
		if err := json.Unmarshal(rec.buf.Bytes(), &st); err != nil {
			return sum, fmt.Errorf("decode /v1/stats: %w", err)
		}
		sum.Queued += st.Queued
		sum.InFlight += st.InFlight
		sum.Rejected += st.Rejected
		sum.Sched.Sheds += st.Sched.Sheds
		sum.Sched.InfeasibleRejected += st.Sched.InfeasibleRejected
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.Cache.Coalesced += st.Cache.Coalesced
		sum.Cache.L2Served += st.Cache.L2Served
		sum.Cache.L2Fallbacks += st.Cache.L2Fallbacks
		sum.Graphs.Hits += st.Graphs.Hits
		sum.Graphs.Misses += st.Graphs.Misses
	}
	return sum, nil
}

// setUp builds a fresh topology and sends every set-up request, timing
// both. Responses are checked after the clock stops.
func setUp(t *traffic) (*env, time.Duration, error) {
	t0 := time.Now()
	e, err := newEnv(t.clustered, nil)
	if err != nil {
		return nil, 0, err
	}
	statuses := make([]int, len(t.setup))
	bodies := make([][]byte, len(t.setup))
	for i, q := range t.setup {
		statuses[i], bodies[i] = serve(e.handler(q), q, true)
	}
	d := time.Since(t0)
	for i, q := range t.setup {
		if v := check(q, statuses[i], bodies[i]); !v.ok || v.invalid {
			e.close()
			return nil, 0, fmt.Errorf("set-up %s request %d: status %d: %s", kindNames[q.kind], i, statuses[i], v.why)
		}
	}
	return e, d, nil
}

// verdict is the check of one response against its request.
type verdict struct {
	ok      bool // 200 and every item answered with a labeling
	invalid bool // some labeling failed verification or a ref mismatched
	why     string
	resps   []service.SolveResponse
}

// check verifies a response: every labeling must satisfy the distance
// constraints of its instance and report its own span, and an interned
// graph must come back under the ref the client computes.
func check(q *request, status int, body []byte) verdict {
	if status != http.StatusOK {
		return verdict{why: fmt.Sprintf("status %d", status)}
	}
	switch q.kind {
	case kindGraphs:
		var gr service.GraphsResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			return verdict{invalid: true, why: err.Error()}
		}
		g := q.graphs[0]
		if gr.GraphRef != q.ref || gr.N != g.N() || gr.M != g.M() {
			return verdict{invalid: true, why: fmt.Sprintf("interned as %s (n=%d m=%d), want %s", gr.GraphRef, gr.N, gr.M, q.ref)}
		}
		return verdict{ok: true}
	case kindBatch:
		v := verdict{ok: true, resps: make([]service.SolveResponse, len(q.graphs))}
		seen := make([]bool, len(q.graphs))
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			var line service.SolveResponse
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return verdict{invalid: true, why: err.Error()}
			}
			var i int
			if _, err := fmt.Sscan(line.ID, &i); err != nil || i < 0 || i >= len(q.graphs) || seen[i] {
				return verdict{invalid: true, why: fmt.Sprintf("unexpected batch line id %q", line.ID)}
			}
			seen[i] = true
			v.resps[i] = line
			if line.Error != "" {
				v.ok, v.why = false, line.Error
				continue
			}
			if why := verifyLabeling(q.graphs[i], q.p, &line); why != "" {
				return verdict{invalid: true, why: why}
			}
		}
		for _, s := range seen {
			if !s {
				v.ok, v.why = false, "batch item missing from stream"
			}
		}
		return v
	default:
		var resp service.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return verdict{invalid: true, why: err.Error()}
		}
		if why := verifyLabeling(q.graphs[0], q.p, &resp); why != "" {
			return verdict{invalid: true, why: why}
		}
		return verdict{ok: true, resps: []service.SolveResponse{resp}}
	}
}

func verifyLabeling(g *graph.Graph, p labeling.Vector, resp *service.SolveResponse) string {
	lab := labeling.Labeling(resp.Labeling)
	if len(lab) != g.N() {
		return fmt.Sprintf("labeling has %d labels for %d vertices", len(lab), g.N())
	}
	if err := labeling.Verify(g, p, lab); err != nil {
		return err.Error()
	}
	if resp.Span != lab.Span() {
		return fmt.Sprintf("reported span %d, labeling span %d", resp.Span, lab.Span())
	}
	return ""
}
