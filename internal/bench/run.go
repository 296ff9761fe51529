package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lpltsp/internal/cluster"
	"lpltsp/internal/core"
	"lpltsp/internal/fault"
	"lpltsp/internal/graph"
	"lpltsp/internal/service"
)

// The in-process load driver. Run boots a live lplserve handler — or N
// of them behind a cluster.Router, each node with its own solve cache,
// intern store, singleflight domain and peer-fill L2, exactly like N OS
// processes — and pushes closed-loop traffic through ServeHTTP with no
// sockets, so what it measures is the handler and the solve pipeline,
// not the kernel's loopback. Every response is checked against the wire
// contract. The named scenarios (scenarios.go) are literals of Scenario;
// cmd/lplbench -scenario runs them, and the tests and benchmarks in this
// package drive the same literals at reduced sizes. Open-loop latency
// measurement is cmd/lplperf's job.

// Scenario describes one closed-loop run. The unexported hooks hold the
// scenario-specific logic: the traffic it sends, a fault script that
// runs beside the clients, the invariants checked after the run, and a
// sweep that composes several runs into one report.
type Scenario struct {
	// Name identifies the scenario (lplbench -scenario).
	Name string
	// Backends is the topology: 0 boots one server driven directly; N ≥ 1
	// boots N nodes behind a consistent-hash router.
	Backends int
	// Server configures every node; the driver gives each its own solve
	// cache of 4·Distinct entries.
	Server service.Config
	// Probe > 0 arms the cluster's self-healing stack: a /readyz prober
	// at this tick, per-backend breakers on the router and on every
	// peer-fill link, budgeted retries with per-attempt timeouts,
	// adaptive hedging, and bounded peer-fill consults.
	Probe time.Duration
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Requests is the number of operations issued, cycling over the
	// traffic's ops; 0 runs until the fault script returns.
	Requests int
	// Distinct graphs of N vertices make up the instance set.
	Distinct, N int
	// Seed feeds the generators, ring placement and both fault plans.
	Seed uint64
	// Floor is the modeled service time of the pinned bench-floor method.
	Floor time.Duration
	// FaultRate arms the in-node fault injector at this per-visit rate;
	// NetRate arms seeded drop/delay/503 faults on every cluster link.
	// Zero leaves them off.
	FaultRate, NetRate float64
	// Retries re-issues a 429 answer up to this many times, Backoff
	// apart; an op's own deadline also ends its retries.
	Retries int
	Backoff time.Duration

	traffic func(*run) (ops, warmup []op, err error)
	script  func(*run) error
	check   func(*run)
	sweep   func(Scenario) (*Report, error)
}

// Report is the outcome of one scenario; every scenario writes this
// schema. Violations is the contract: empty means every invariant held.
type Report struct {
	Scenario string  `json:"scenario"`
	Seed     uint64  `json:"seed"`
	Machine  Machine `json:"machine"`
	// Ops counts operations that reached a final answer; ByStatus splits
	// them by HTTP status and ByCode by machine-readable error code.
	Ops      int64            `json:"ops"`
	ByStatus map[int]int64    `json:"byStatus"`
	ByCode   map[string]int64 `json:"byCode"`
	Elapsed  time.Duration    `json:"elapsedNs"`
	// Latency is client-observed, from an op's first attempt to its final
	// answer; Throughput counts well-formed 200s per second of wall time.
	Latency    Latency              `json:"latency"`
	Throughput float64              `json:"throughput"`
	Nodes      []Node               `json:"nodes"`
	Router     *cluster.RouterStats `json:"router"`
	Metrics    map[string]float64   `json:"metrics"`
	Violations []string             `json:"violations"`
	// Runs holds the component runs of a sweep (the cluster ladder, the
	// FIFO-vs-EDF pair); the parent's counts and violations sum them.
	Runs []*Report `json:"runs"`
}

// Machine records where a report was measured.
type Machine struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCPU"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// Latency is the nearest-rank summary of per-op latencies.
type Latency struct {
	P50 time.Duration `json:"p50Ns"`
	P95 time.Duration `json:"p95Ns"`
	P99 time.Duration `json:"p99Ns"`
	Max time.Duration `json:"maxNs"`
}

// Node is one server's own /v1/stats view after the run.
type Node struct {
	Name  string                `json:"name"`
	Stats service.StatsResponse `json:"stats"`
}

func newReport(s Scenario) *Report {
	return &Report{
		Scenario: s.Name,
		Seed:     s.Seed,
		Machine: Machine{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
			runtime.GOOS, runtime.GOARCH},
		ByStatus:   map[int]int64{},
		ByCode:     map[string]int64{},
		Nodes:      []Node{},
		Metrics:    map[string]float64{},
		Violations: []string{},
	}
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// op is one unit of traffic: a pre-marshaled POST.
type op struct {
	path        string
	body        []byte
	contentType string
	items       int           // > 0: an NDJSON batch answering this many lines
	deadline    time.Duration // client deadline from the first attempt; 0 = none
}

// result is one op's final answer. It holds no pointers, so a long
// run's results cost the garbage collector nothing to scan.
type result struct {
	op     int // index into run.ops
	status int
	ok     bool // well-formed per the wire contract
	lat    time.Duration
}

// node is one booted server; gate switches its transport off for the
// fault script (cluster topologies only).
type node struct {
	name   string
	server *service.Server
	gate   *gateDoer
}

// run is the state of one scenario run, shared with its hooks.
type run struct {
	s       Scenario
	rep     *Report
	front   http.Handler
	nodes   []node
	router  *cluster.Router
	prober  *cluster.Prober
	netInj  *fault.NetInjector
	ops     []op
	results []result
	ok      atomic.Int64 // well-formed 200s so far (fault scripts sample it)
	retries atomic.Int64
	codesMu sync.Mutex
	codes   map[string]int64 // error codes answered so far
}

// Run executes one scenario and checks its invariants. The error covers
// set-up only; broken invariants land in the report's Violations.
func Run(s Scenario) (*Report, error) {
	if sweep := s.sweep; sweep != nil {
		s.sweep = nil
		return sweep(s)
	}
	if s.traffic == nil || s.Clients < 1 || (s.Requests < 1 && s.script == nil) {
		return nil, fmt.Errorf("bench: scenario %q needs traffic, clients, and a request count or a fault script", s.Name)
	}
	registerBenchMethods()
	// The floor is process-global: reset it so runs do not leak into
	// each other.
	floorDelayNs.Store(int64(s.Floor))
	defer floorDelayNs.Store(0)

	r := &run{s: s, rep: newReport(s), codes: map[string]int64{}}
	if err := r.boot(); err != nil {
		return nil, err
	}
	ops, warmup, err := s.traffic(r)
	if err != nil {
		return nil, err
	}
	r.drive(warmup, max(1, 2*s.Server.Workers), len(warmup), nil)
	r.ok.Store(0)
	r.retries.Store(0)
	clear(r.codes)
	r.ops = ops

	var inj *fault.Injector
	if s.FaultRate > 0 {
		// The leak stall is kept short so rate × leak cannot dominate wall
		// time.
		inj = fault.Enable(fault.Plan{Seed: s.Seed, Rate: s.FaultRate, Leak: 50 * time.Millisecond})
	}
	if r.prober != nil {
		r.prober.Start()
		defer r.prober.Stop()
	}
	start := time.Now()
	var scriptErr error
	if s.script == nil {
		r.results = r.drive(ops, s.Clients, s.Requests, nil)
	} else {
		stop := make(chan struct{})
		done := make(chan []result)
		go func() { done <- r.drive(ops, s.Clients, s.Requests, stop) }()
		scriptErr = s.script(r)
		close(stop)
		r.results = <-done
	}
	r.rep.Elapsed = time.Since(start)
	if inj != nil {
		fault.Disable()
	}
	if scriptErr != nil {
		return nil, scriptErr
	}

	r.summarize()
	if inj != nil {
		for k, n := range inj.Fired() {
			r.rep.Metrics["injected."+k] = float64(n)
		}
	}
	if r.netInj != nil {
		for k, n := range r.netInj.Fired() {
			r.rep.Metrics["net."+k] = float64(n)
		}
	}
	if s.Retries > 0 {
		r.rep.Metrics["retries"] = float64(r.retries.Load())
	}
	if s.check != nil {
		s.check(r)
	}
	for i := range r.nodes {
		st, err := r.stats(i)
		if err != nil {
			return nil, err
		}
		r.rep.Nodes = append(r.rep.Nodes, Node{r.nodes[i].name, st})
	}
	if r.router != nil {
		st := r.router.Stats()
		r.rep.Router = &st
	}
	return r.rep, nil
}

// boot builds the topology: one server, or Backends nodes wired to fill
// from each other behind a router.
func (r *run) boot() error {
	s := r.s
	newNode := func(name string) (node, *core.SolveCache) {
		cfg := s.Server
		cfg.Cache = core.NewSolveCache(4 * s.Distinct)
		srv := service.NewServer(&cfg)
		return node{name: name, server: srv, gate: &gateDoer{next: cluster.HandlerDoer{Handler: srv}}}, cfg.Cache
	}
	if s.Backends == 0 {
		n, _ := newNode("b0")
		r.nodes, r.front = []node{n}, n.server
		return nil
	}
	if s.NetRate > 0 {
		r.netInj = fault.NewNetInjector(fault.NetPlan{
			Seed: s.Seed,
			Rate: s.NetRate,
			// Background noise keeps to flavors the retry layer absorbs
			// quickly; the fault script covers stalls deliberately.
			Kinds: []fault.NetKind{fault.NetDrop, fault.NetDelay, fault.NetFlaky5xx},
			Delay: 5 * time.Millisecond,
		})
	}
	caches := make([]*core.SolveCache, s.Backends)
	backends := make([]cluster.Backend, s.Backends)
	for i := range backends {
		var n node
		n, caches[i] = newNode(fmt.Sprintf("b%d", i))
		r.nodes = append(r.nodes, n)
		// The same gated doer serves the router, the prober and every
		// peer's fill transport, so a killed node is dead to the cluster.
		var doer cluster.Doer = n.gate
		if r.netInj != nil {
			doer = r.netInj.Wrap("net."+n.name, doer)
		}
		backends[i] = cluster.Backend{Name: n.name, Doer: doer}
	}
	ring := cluster.RingConfig{Seed: s.Seed}
	breakers := cluster.BreakerConfig{Threshold: 3, Cooldown: 200 * time.Millisecond}
	for i, n := range r.nodes {
		pf, err := cluster.NewPeerFill(n.name, backends, ring)
		if err != nil {
			return err
		}
		if s.Probe > 0 {
			pf.SetBreakers(cluster.NewBreakerSet(breakers))
			// A stalled owner must cost a bounded wait per consult, or the
			// survivors' workers wedge on gray-failing fills.
			pf.SetFillTimeout(150 * time.Millisecond)
		}
		caches[i].SetL2(pf)
	}
	rt, err := cluster.NewRouter(backends, ring)
	if err != nil {
		return err
	}
	if s.Probe > 0 {
		rt.ConfigureBreakers(breakers)
		rt.ConfigureRetry(cluster.RetryPolicy{MaxAttempts: 3, AttemptTimeout: 250 * time.Millisecond, BudgetRatio: 0.2})
		rt.EnableHedge(0) // adaptive p95
		r.prober = cluster.NewProber(rt, cluster.ProbeConfig{
			Interval:         s.Probe,
			Timeout:          s.Probe * 2 / 3,
			FailThreshold:    3,
			RecoverThreshold: 2,
			Seed:             s.Seed,
		})
	}
	r.router, r.front = rt, rt
	return nil
}

// drive runs clients closed-loop over ops until count ops are issued
// (count > 0) or stop closes, and returns every op's result.
func (r *run) drive(ops []op, clients, count int, stop <-chan struct{}) []result {
	if len(ops) == 0 {
		return nil
	}
	var next atomic.Int64
	per := make([][]result, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec recorder
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if count > 0 && i >= count {
					return
				}
				per[c] = append(per[c], r.do(&rec, ops, i%len(ops)))
			}
		}()
	}
	wg.Wait()
	return slices.Concat(per...)
}

// do drives ops[i] to its final answer, retrying 429s per the scenario.
func (r *run) do(rec *recorder, ops []op, i int) result {
	o := &ops[i]
	ctx := context.Background()
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://bench"+o.path, bytes.NewReader(o.body))
		if err != nil {
			panic(err) // constant method and URL: unreachable
		}
		req.Header.Set("Content-Type", o.contentType)
		rec.reset()
		r.front.ServeHTTP(rec, req)
		if rec.status != http.StatusTooManyRequests || attempt >= r.s.Retries || !sleepCtx(ctx, r.s.Backoff) {
			break
		}
		r.retries.Add(1)
	}
	res := result{op: i, status: rec.status, lat: time.Since(t0)}
	var code string
	code, res.ok = wellFormed(rec.status, rec.buf.Bytes(), o.items)
	if res.ok && res.status == http.StatusOK {
		r.ok.Add(1)
	}
	if code != "" {
		r.codesMu.Lock()
		r.codes[code]++
		r.codesMu.Unlock()
	}
	return res
}

// sleepCtx sleeps for d unless ctx ends first, reporting whether it slept.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// terminal is every status an op may end on: the handler's own answers
// plus the router's gateway statuses.
var terminal = map[int]bool{
	http.StatusOK:                  true,
	http.StatusRequestTimeout:      true, // deadline, client gone, or watchdog kill
	http.StatusUnprocessableEntity: true, // quarantined or inapplicable
	http.StatusTooManyRequests:     true, // admission full, retries exhausted
	http.StatusInternalServerError: true, // contained panic
	http.StatusBadGateway:          true, // no live backend within attempt bounds
	http.StatusServiceUnavailable:  true, // injected 503 relayed at attempt exhaustion
	http.StatusGatewayTimeout:      true,
}

// reply is the part of a solve answer or error body the contract checks.
type reply struct {
	ID       string  `json:"id"`
	Error    string  `json:"error"`
	Code     string  `json:"code"`
	Labeling present `json:"labeling"`
}

// present records whether a JSON array is non-empty without keeping it.
type present bool

func (p *present) UnmarshalJSON(b []byte) error {
	*p = len(b) > 2 && b[0] == '['
	return nil
}

// wellFormed checks one final answer against the wire contract: a
// terminal status; a 200 carries a labeling and no error, any other
// status an error; a 200 batch streams one id-tagged line per item. It
// returns the error code the answer carried.
func wellFormed(status int, body []byte, items int) (code string, ok bool) {
	if !terminal[status] {
		return "", false
	}
	if items > 0 && status == http.StatusOK {
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		if len(lines) != items {
			return "", false
		}
		for _, ln := range lines {
			var rp reply
			if json.Unmarshal(ln, &rp) != nil || rp.ID == "" || (rp.Error == "" && !rp.Labeling) {
				return "", false
			}
			if rp.Code != "" {
				code = rp.Code
			}
		}
		return code, true
	}
	var rp reply
	if json.Unmarshal(body, &rp) != nil {
		return "", false
	}
	if status == http.StatusOK {
		return rp.Code, rp.Error == "" && bool(rp.Labeling)
	}
	return rp.Code, rp.Error != ""
}

// summarize folds the results into the report's counts, latency summary
// and throughput.
func (r *run) summarize() {
	rep := r.rep
	lats := make([]time.Duration, len(r.results))
	malformed := 0
	for i, res := range r.results {
		rep.ByStatus[res.status]++
		if !res.ok {
			malformed++
		}
		lats[i] = res.lat
	}
	rep.Ops = int64(len(r.results))
	rep.ByCode = r.codes
	rep.Latency = summarize(lats)
	if rep.Elapsed > 0 {
		rep.Throughput = float64(r.ok.Load()) / rep.Elapsed.Seconds()
	}
	if malformed > 0 {
		rep.violate("%d answers broke the wire contract", malformed)
	}
}

// summarize sorts ns in place and reads off the nearest-rank marks.
func summarize(ns []time.Duration) Latency {
	if len(ns) == 0 {
		return Latency{}
	}
	slices.Sort(ns)
	at := func(p float64) time.Duration { return ns[rankIndex(len(ns), p)] }
	return Latency{P50: at(0.50), P95: at(0.95), P99: at(0.99), Max: ns[len(ns)-1]}
}

// rankIndex is the index of the nearest-rank p-th percentile in a sorted
// sample of n: ceil(p·n) − 1. The epsilon keeps a product that lands a
// rounding error above an integer (0.51·100) on that integer.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// recorder is a reusable in-process ResponseWriter.
type recorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *recorder) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *recorder) WriteHeader(status int) { w.status = status }

func (w *recorder) reset() {
	clear(w.header)
	w.status = 0
	w.buf.Reset()
}

// get issues an in-process GET.
func get(h http.Handler, path string) *recorder {
	req, err := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
	if err != nil {
		panic(err) // constant URL: unreachable
	}
	var rec recorder
	h.ServeHTTP(&rec, req)
	return &rec
}

// stats reads node i's /v1/stats.
func (r *run) stats(i int) (service.StatsResponse, error) {
	var st service.StatsResponse
	if err := json.Unmarshal(get(r.nodes[i].server, "/v1/stats").buf.Bytes(), &st); err != nil {
		return st, fmt.Errorf("bench: decode %s /v1/stats: %w", r.nodes[i].name, err)
	}
	return st, nil
}

// intern registers g through the front door (landing it on its owner in
// a cluster) and returns its graphRef.
func (r *run) intern(g *graph.Graph) (string, error) {
	gb, err := json.Marshal(g)
	if err != nil {
		return "", fmt.Errorf("bench: marshal graph: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://bench/v1/graphs", bytes.NewReader(gb))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	var rec recorder
	r.front.ServeHTTP(&rec, req)
	if rec.status != http.StatusOK {
		return "", fmt.Errorf("bench: intern graph: status %d: %s", rec.status, rec.buf.String())
	}
	var gr service.GraphsResponse
	if err := json.Unmarshal(rec.buf.Bytes(), &gr); err != nil {
		return "", fmt.Errorf("bench: decode /v1/graphs response: %w", err)
	}
	return gr.GraphRef, nil
}

// runAll runs a sweep's component scenarios in order.
func runAll(scenarios []Scenario) ([]*Report, error) {
	var runs []*Report
	for _, s := range scenarios {
		rep, err := Run(s)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", s.Name, err)
		}
		runs = append(runs, rep)
	}
	return runs, nil
}

// compose is a sweep's parent report: its runs' counts and elapsed time
// summed, their violations prefixed with the run's name.
func compose(s Scenario, runs []*Report) *Report {
	rep := newReport(s)
	rep.Runs = runs
	for _, run := range runs {
		rep.Ops += run.Ops
		rep.Elapsed += run.Elapsed
		for k, n := range run.ByStatus {
			rep.ByStatus[k] += n
		}
		for k, n := range run.ByCode {
			rep.ByCode[k] += n
		}
		for _, v := range run.Violations {
			rep.violate("%s: %s", run.Scenario, v)
		}
	}
	return rep
}

// String renders the report for the lplbench CLI.
func (r *Report) String() string {
	var b strings.Builder
	if r.Runs != nil {
		fmt.Fprintf(&b, "%s (seed %d): %d ops over %d runs in %v\n",
			r.Scenario, r.Seed, r.Ops, len(r.Runs), r.Elapsed.Round(time.Millisecond))
	} else {
		fmt.Fprintf(&b, "%s (seed %d): %d ops in %v, %.0f req/s\n",
			r.Scenario, r.Seed, r.Ops, r.Elapsed.Round(time.Millisecond), r.Throughput)
		l := r.Latency
		fmt.Fprintf(&b, "  latency    p50 %v  p95 %v  p99 %v  max %v\n", l.P50.Round(time.Microsecond),
			l.P95.Round(time.Microsecond), l.P99.Round(time.Microsecond), l.Max.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "  status    ")
	for _, s := range slices.Sorted(maps.Keys(r.ByStatus)) {
		fmt.Fprintf(&b, " %d:%d", s, r.ByStatus[s])
	}
	if len(r.ByCode) > 0 {
		fmt.Fprintf(&b, "\n  codes     ")
		for _, c := range slices.Sorted(maps.Keys(r.ByCode)) {
			fmt.Fprintf(&b, " %s:%d", c, r.ByCode[c])
		}
	}
	b.WriteString("\n")
	for _, n := range r.Nodes {
		st := n.Stats
		fmt.Fprintf(&b, "  node %-5s solved %d failed %d rejected %d  cache hits %d misses %d  intern hits %d  l2 served %d fallbacks %d\n",
			n.Name, st.Solved, st.Failed, st.Rejected, st.Cache.Hits, st.Cache.Misses, st.Graphs.Hits,
			st.Cache.L2Served, st.Cache.L2Fallbacks)
		if f := st.Fault; f.EnginePanics+f.HandlerPanics+f.StuckSolves+f.Quarantine.Trips > 0 {
			fmt.Fprintf(&b, "             enginePanics %d handlerPanics %d stuckSolves %d quarantine trips %d fastFails %d\n",
				f.EnginePanics, f.HandlerPanics, f.StuckSolves, f.Quarantine.Trips, f.Quarantine.FastFails)
		}
	}
	if rt := r.Router; rt != nil {
		fmt.Fprintf(&b, "  router     proxied %d  retries %d  dead %d  hedged %d (wins %d)  breaker trips %d\n",
			rt.Proxied, rt.Retries, rt.DeadBackends, rt.Hedged, rt.HedgeWins, rt.Breakers.Trips)
		if h := rt.Health; h != nil {
			fmt.Fprintf(&b, "  prober     %d rounds, %d ejections, %d revivals\n", h.Probes, h.Ejections, h.Revivals)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
		fmt.Fprintf(&b, "  %-22s %.4g\n", k, r.Metrics[k])
	}
	for _, run := range r.Runs {
		b.WriteString(strings.ReplaceAll("  "+strings.TrimSuffix(run.String(), "\n"), "\n", "\n  "))
		b.WriteString("\n")
	}
	if len(r.Violations) == 0 {
		b.WriteString("  invariants OK\n")
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION  %s\n", v)
	}
	return b.String()
}
