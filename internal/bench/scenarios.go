package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lpltsp/internal/cluster"
	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
	"lpltsp/internal/service"
)

// Scenarios returns the named scenarios at full size (scale 0) or at
// reduced smoke sizes (scale 1). Each literal holds every value its run
// uses — the CLI and the tests take them from here.
//
//   - load-json, load-graphref, load-binary: repeated solves over a
//     small instance set through one handler, by full JSON body, by
//     interned graphRef, and by binary graph frame (BENCH_PR5/PR6).
//   - chaos: 100 retrying clients of mixed solo/batch/poison/stall
//     traffic against one handler with the in-node fault injector,
//     quarantine and watchdog armed; checks fault containment.
//   - cluster-ladder: routed floor-bound traffic at 1, 2 and 4 backends,
//     plus the router's overhead on hot cached traffic (BENCH_PR8).
//   - deadline: one mixed-deadline workload under FIFO, then EDF
//     admission (BENCH_PR9).
//   - cluster-chaos: a self-healing 3-node cluster under seeded network
//     faults; one backend is killed and another stalled mid-run, then
//     both revived (BENCH_PR10).
func Scenarios(scale int) []Scenario {
	small := scale > 0
	ladderDistinct := pick(small, 512, 64)
	load := func(name, wire string) Scenario {
		return Scenario{Name: name, Clients: 16, Requests: pick(small, 2048, 256),
			Distinct: pick(small, 16, 8), N: pick(small, 64, 32), Seed: 2023,
			traffic: solveTraffic(wire, ""), check: requireOK}
	}
	return []Scenario{
		load("load-json", "json"),
		load("load-graphref", "graphref"),
		load("load-binary", "binary"),
		{
			Name: "chaos", Clients: 100, Requests: pick(small, 1500, 400),
			Distinct: 12, N: 32, Seed: 2023, FaultRate: 0.02,
			// A queue deep enough that 429s are a transient, a quarantine
			// whose sentence outlasts the run, and the watchdog armed.
			Server: service.Config{QueueDepth: 1024, QuarantineThreshold: 2,
				QuarantineTTL: time.Hour, WatchdogGrace: 2},
			// The server's Retry-After is at least 1s; an in-process run
			// waits 100ms instead.
			Retries: 3, Backoff: 100 * time.Millisecond,
			traffic: chaosTraffic, check: chaosCheck,
		},
		{
			// One worker per node makes per-node capacity the bottleneck;
			// the floor models its service time, so what scales is the
			// cluster layer's independent per-node capacity. Each instance
			// is solved exactly once.
			Name: "cluster-ladder", Backends: 1, Clients: 32,
			Requests: ladderDistinct, Distinct: ladderDistinct, N: 24, Seed: 2023,
			Floor:   8 * time.Millisecond,
			Server:  service.Config{Workers: 1, QueueDepth: 128},
			traffic: solveTraffic("graphref", benchFloorName), check: requireOK, sweep: ladder,
		},
		{
			// A queue smaller than the client fleet, so admission-time
			// triage is exercised, not just queue ordering; each op retries
			// its 429s until its own deadline.
			Name: "deadline", Clients: 16, Requests: pick(small, 1024, 96), Seed: 2023,
			Server:  service.Config{Workers: 2, QueueDepth: 12},
			Retries: math.MaxInt32, Backoff: 2 * time.Millisecond,
			traffic: deadlineTraffic, check: deadlineCheck, sweep: fifoVsEDF,
		},
		{
			Name: "cluster-chaos", Backends: 3, Clients: pick(small, 24, 8),
			Distinct: pick(small, 12, 8), N: pick(small, 24, 16), Seed: 2023,
			Floor:  pick(small, time.Millisecond, 500*time.Microsecond),
			Server: service.Config{Workers: 2, QueueDepth: 96},
			Probe:  pick(small, 15*time.Millisecond, 10*time.Millisecond), NetRate: 0.01,
			traffic: churnTraffic(pick(small, 800*time.Millisecond, 400*time.Millisecond)),
			script:  killStallRevive(pick(small, 400*time.Millisecond, 150*time.Millisecond)),
			check:   churnCheck,
		},
	}
}

func pick[T any](small bool, full, reduced T) T {
	if small {
		return reduced
	}
	return full
}

// Lookup returns the named scenario at the given scale.
func Lookup(name string, scale int) (Scenario, error) {
	for _, s := range Scenarios(scale) {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("bench: unknown scenario %q", name)
}

// graphs generates the scenario's instance set.
func graphs(s Scenario) []*graph.Graph {
	r := rng.New(s.Seed)
	gs := make([]*graph.Graph, s.Distinct)
	for i := range gs {
		gs[i] = graph.RandomSmallDiameter(r, s.N, 3, 0.1)
	}
	return gs
}

func marshalOp(path string, v any, items int, deadline time.Duration) (op, error) {
	b, err := json.Marshal(v)
	return op{path: path, body: b, contentType: "application/json", items: items, deadline: deadline}, err
}

// solveTraffic is one solve per instance, sent as a full JSON body, a
// graphRef to the instance interned before the clock starts, or a binary
// graph frame followed by the JSON envelope; method pins the route when
// set. It records the mean request body size as bytesPerReq.
func solveTraffic(wire string, method core.MethodName) func(*run) ([]op, []op, error) {
	return func(r *run) ([]op, []op, error) {
		gs := graphs(r.s)
		ops := make([]op, len(gs))
		total := 0
		for i, g := range gs {
			req := service.SolveRequest{ID: fmt.Sprintf("load-%d", i), P: labeling.Vector{2, 2, 1}}
			if method != "" {
				req.Options = &service.WireOptions{Method: string(method)}
			}
			var frame []byte
			switch wire {
			case "graphref":
				ref, err := r.intern(g)
				if err != nil {
					return nil, nil, err
				}
				req.GraphRef = ref
			case "binary":
				frame = graph.AppendBinary(nil, g)
			default:
				req.Graph = g
			}
			o, err := marshalOp("/v1/solve", req, 0, 0)
			if err != nil {
				return nil, nil, err
			}
			if frame != nil {
				o.body, o.contentType = append(frame, o.body...), graph.BinaryContentType
			}
			ops[i] = o
			total += len(o.body)
		}
		r.rep.Metrics["bytesPerReq"] = float64(total) / float64(len(ops))
		return ops, nil, nil
	}
}

// requireOK flags any answer other than 200.
func requireOK(r *run) {
	if bad := r.rep.Ops - r.rep.ByStatus[http.StatusOK]; bad > 0 {
		r.rep.violate("%d of %d requests did not answer 200", bad, r.rep.Ops)
	}
}

// chaosBoomMethod always panics — the reproducible poison engine. Like
// every bench method it applies only when pinned, so registering it never
// perturbs planned routes.
type chaosBoomMethod struct{}

const chaosBoomName core.MethodName = "chaos-boom"

func (chaosBoomMethod) Name() core.MethodName { return chaosBoomName }

func (chaosBoomMethod) Check(pr *core.Probe, p labeling.Vector, opts *core.Options) core.Applicability {
	return pinnedOnly(opts, chaosBoomName)
}

func (chaosBoomMethod) Solve(ctx context.Context, pr *core.Probe, p labeling.Vector, opts *core.Options) (*core.Result, error) {
	panic("chaos-boom: injected poison instance")
}

// chaosStallMethod ignores its context and stalls — watchdog bait. The
// stall is bounded so a run with the watchdog disabled still ends.
type chaosStallMethod struct{}

const chaosStallName core.MethodName = "chaos-stall"

func (chaosStallMethod) Name() core.MethodName { return chaosStallName }

func (chaosStallMethod) Check(pr *core.Probe, p labeling.Vector, opts *core.Options) core.Applicability {
	return pinnedOnly(opts, chaosStallName)
}

func (chaosStallMethod) Solve(ctx context.Context, pr *core.Probe, p labeling.Vector, opts *core.Options) (*core.Result, error) {
	time.Sleep(250 * time.Millisecond) // deliberately ignores ctx
	return firstFit(pr, p, chaosStallName)
}

// benchFloorMethod holds a solver slot for the scenario's Floor of wall
// time, then answers with the first-fit labeling: horizontal scaling of
// CPU-bound work cannot be shown in one process on one core, so the
// floor models the per-request CPU a real node would spend.
type benchFloorMethod struct{}

const benchFloorName core.MethodName = "bench-floor"

var floorDelayNs atomic.Int64

func (benchFloorMethod) Name() core.MethodName { return benchFloorName }

func (benchFloorMethod) Check(pr *core.Probe, p labeling.Vector, opts *core.Options) core.Applicability {
	return pinnedOnly(opts, benchFloorName)
}

func (benchFloorMethod) Solve(ctx context.Context, pr *core.Probe, p labeling.Vector, opts *core.Options) (*core.Result, error) {
	if d := floorDelayNs.Load(); d > 0 && !sleepCtx(ctx, time.Duration(d)) {
		return nil, ctx.Err()
	}
	return firstFit(pr, p, benchFloorName)
}

func pinnedOnly(opts *core.Options, name core.MethodName) core.Applicability {
	if opts == nil || opts.Method != name {
		return core.Applicability{Reason: "bench method; pin it explicitly"}
	}
	return core.Applicability{OK: true, Cost: 1, Reason: "bench method"}
}

func firstFit(pr *core.Probe, p labeling.Vector, name core.MethodName) (*core.Result, error) {
	lab, span, err := labeling.GreedyFirstFit(pr.G, p, labeling.OrderDegree)
	if err != nil {
		return nil, err
	}
	return &core.Result{Labeling: lab, Span: span, Method: name}, nil
}

var registerOnce sync.Once

func registerBenchMethods() {
	registerOnce.Do(func() {
		core.RegisterMethod(chaosBoomMethod{})
		core.RegisterMethod(chaosStallMethod{})
		core.RegisterMethod(benchFloorMethod{})
	})
}

// chaosTraffic is the containment mix, one op per request: healthy
// solves over the instance set, periodic 3-item batches, a repeated
// poison instance pinned to the always-panicking engine, and a repeated
// stall instance pinned to the context-ignoring one under a tight
// deadline.
func chaosTraffic(r *run) ([]op, []op, error) {
	gs := graphs(r.s)
	p := labeling.Vector{2, 2, 1}
	healthy := &service.WireOptions{DeadlineMs: 2000}
	solve := func(id string, g *graph.Graph, opts *service.WireOptions) service.SolveRequest {
		return service.SolveRequest{ID: id, Graph: g, P: p, Options: opts}
	}
	ops := make([]op, r.s.Requests)
	for i := range ops {
		var err error
		switch {
		case i%29 == 1:
			ops[i], err = marshalOp("/v1/solve", solve("poison", gs[0], &service.WireOptions{Method: string(chaosBoomName)}), 0, 0)
		case i%41 == 2:
			ops[i], err = marshalOp("/v1/solve", solve("stall", gs[1%len(gs)],
				&service.WireOptions{Method: string(chaosStallName), DeadlineMs: 50}), 0, 0)
		case i%16 == 3:
			items := make([]service.SolveRequest, 3)
			for k := range items {
				items[k] = solve(fmt.Sprintf("b%d-%d", i, k), gs[(i+k)%len(gs)], healthy)
			}
			ops[i], err = marshalOp("/v1/batch", service.BatchRequest{Items: items}, len(items), 0)
		default:
			ops[i], err = marshalOp("/v1/solve", solve(fmt.Sprintf("chaos-%d", i%len(gs)), gs[i%len(gs)], healthy), 0, 0)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return ops, nil, nil
}

// chaosCheck: the handler is alive, its admission gauges drain once
// traffic stops, and the poison instance ended up quarantined.
func chaosCheck(r *run) {
	if st := get(r.front, "/healthz").status; st != http.StatusOK {
		r.rep.violate("/healthz returned %d after the run", st)
	}
	// Released watchdog followers may still be unwinding: poll briefly.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, err := r.stats(0)
		if err == nil && st.Queued == 0 && st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			r.rep.violate("gauges did not drain: queued=%d inFlight=%d (%v)", st.Queued, st.InFlight, err)
			break
		}
	}
	if r.rep.ByCode["quarantined"] == 0 {
		r.rep.violate("poison instance was never quarantined")
	}
}

// ladder runs the routed scaling ladder at 1, 2 and 4 backends, then the
// floor-free hot pair — many requests cycling 16 cached instances, once
// against one server directly and once through a 1-backend router — whose
// throughput ratio is the router hop's own cost.
func ladder(s Scenario) (*Report, error) {
	var variants []Scenario
	for _, b := range []int{1, 2, 4} {
		v := s
		v.Name, v.Backends = fmt.Sprintf("%s/backends=%d", s.Name, b), b
		variants = append(variants, v)
	}
	direct := s
	direct.Floor, direct.Requests, direct.Distinct = 0, 32*s.Distinct, 16
	routed := direct
	direct.Name, direct.Backends = s.Name+"/hot-direct", 0
	routed.Name, routed.Backends = s.Name+"/hot-routed", 1
	runs, err := runAll(append(variants, direct, routed))
	if err != nil {
		return nil, err
	}
	rep := compose(s, runs)
	if t1 := runs[0].Throughput; t1 > 0 {
		rep.Metrics["scaling2x"] = runs[1].Throughput / t1
		rep.Metrics["scaling4x"] = runs[2].Throughput / t1
	}
	if routed := runs[4].Throughput; routed > 0 {
		rep.Metrics["routerOverhead"] = runs[3].Throughput / routed
	}
	return rep, nil
}

// The deadline workload: tightFraction of requests carry tightBudget, the
// rest looseBudget. The tight budget is meetable for the small instances
// when a policy prioritizes them and hopeless for the largest — the mix
// that separates deadline-aware admission from FIFO.
const (
	tightFraction = 0.3
	tightBudget   = 100 * time.Millisecond
	looseBudget   = 1500 * time.Millisecond
)

// deadlineTraffic is Requests solves over random trees of 64 to 2048
// vertices, each pinned NoCache so every admission buys real solver
// work, with the tight/loose assignment fixed per index by the seed so
// both policies see the identical workload. The warm-up (no deadlines)
// trains the server's cost model before the clock starts, as a
// production instance has seen traffic before a burst.
func deadlineTraffic(r *run) ([]op, []op, error) {
	g := rng.New(r.s.Seed)
	var trees []*graph.Graph
	for _, n := range []int{64, 256, 1024, 2048} {
		for k := 0; k < 3; k++ {
			trees = append(trees, graph.RandomTree(g, n))
		}
	}
	solve := func(id string, i int, deadline time.Duration) (op, error) {
		return marshalOp("/v1/solve", service.SolveRequest{ID: id, Graph: trees[i%len(trees)], P: labeling.L21(),
			Options: &service.WireOptions{NoCache: true, DeadlineMs: deadline.Milliseconds()}}, 0, deadline)
	}
	ops := make([]op, r.s.Requests)
	for i := range ops {
		d := looseBudget
		if g.Intn(1000) < int(tightFraction*1000) {
			d = tightBudget
		}
		var err error
		if ops[i], err = solve(fmt.Sprintf("d%d", i), i, d); err != nil {
			return nil, nil, err
		}
	}
	warmup := make([]op, 4*len(trees))
	for i := range warmup {
		var err error
		if warmup[i], err = solve(fmt.Sprintf("w%d", i), i, 0); err != nil {
			return nil, nil, err
		}
	}
	return ops, warmup, nil
}

// deadlineCheck scores one policy's run. A miss is a request that
// consumed service yet blew its own deadline: a late 200, or a 408 (the
// deadline passed mid-solve or in the queue). Useful work is the 200s
// that made it in time; a 429 still refused at the deadline cost no
// worker anything.
func deadlineCheck(r *run) {
	var completed, expired, rejected, other, misses, useful, tightTotal, tightHit float64
	for _, res := range r.results {
		deadline := r.ops[res.op].deadline
		tight := deadline == tightBudget
		if tight {
			tightTotal++
		}
		switch res.status {
		case http.StatusOK:
			completed++
			if res.lat > deadline {
				misses++
				break
			}
			useful++
			if tight {
				tightHit++
			}
		case http.StatusRequestTimeout:
			expired++
			misses++
		case http.StatusTooManyRequests:
			rejected++
		default:
			other++
		}
	}
	m := r.rep.Metrics
	m["completed"], m["expired"], m["rejected"], m["misses"] = completed, expired, rejected, misses
	m["useful"], m["tightTotal"], m["tightHit"] = useful, tightTotal, tightHit
	if completed+expired > 0 {
		m["missRate"] = misses / (completed + expired)
	}
	m["usefulPerSec"] = useful / r.rep.Elapsed.Seconds()
	if other > 0 {
		r.rep.violate("%.0f requests ended outside 200/408/429", other)
	}
}

// fifoVsEDF runs the deadline workload under FIFO, then EDF; the
// headline deltas are positive when EDF wins.
func fifoVsEDF(s Scenario) (*Report, error) {
	fifo, edf := s, s
	fifo.Name, fifo.Server.Sched = s.Name+"/fifo", "fifo"
	edf.Name, edf.Server.Sched = s.Name+"/edf", "edf"
	runs, err := runAll([]Scenario{fifo, edf})
	if err != nil {
		return nil, err
	}
	f, e := runs[0].Metrics, runs[1].Metrics
	rep := compose(s, runs)
	rep.Metrics["missRateDrop"] = f["missRate"] - e["missRate"]
	if f["useful"] > 0 {
		rep.Metrics["usefulWorkGain"] = (e["useful"] - f["useful"]) / f["useful"]
	}
	if f["tightTotal"] > 0 {
		rep.Metrics["tightHitRateGain"] = (e["tightHit"] - f["tightHit"]) / f["tightTotal"]
	}
	return rep, nil
}

// gateDoer switches one backend's transport at run time: alive (pass
// through), killed (an immediate transport error, like a refused
// connection), or stalled (no answer until the caller gives up — a gray
// failure only per-attempt timeouts catch).
type gateDoer struct {
	mode atomic.Int32
	next cluster.Doer
}

const (
	backendAlive int32 = iota
	backendKilled
	backendStalled
)

func (d *gateDoer) Do(req *http.Request) (*http.Response, error) {
	switch d.mode.Load() {
	case backendKilled:
		return nil, errors.New("bench: backend killed (connection refused)")
	case backendStalled:
		// Bounded so a context-less caller cannot wedge the run.
		if sleepCtx(req.Context(), 2*time.Second) {
			return nil, errors.New("bench: stalled backend never answered")
		}
		return nil, req.Context().Err()
	}
	return d.next.Do(req)
}

// churnGrace is how far past its deadline a request may run before the
// cluster-chaos run calls it a violation: response writing and scheduler
// jitter, not another service-time share.
const churnGrace = 500 * time.Millisecond

// churnTraffic is inline-graph solves pinned to the floor method (any
// node can solve any of them, so ownership remaps freely under churn)
// with every eighth op a 2-item batch, all under one client deadline.
func churnTraffic(deadline time.Duration) func(*run) ([]op, []op, error) {
	return func(r *run) ([]op, []op, error) {
		gs := graphs(r.s)
		opts := &service.WireOptions{Method: string(benchFloorName), DeadlineMs: deadline.Milliseconds()}
		solve := func(id string, i int) service.SolveRequest {
			return service.SolveRequest{ID: id, Graph: gs[i%len(gs)], P: labeling.Vector{2, 2, 1}, Options: opts}
		}
		ops := make([]op, 8*len(gs))
		for i := range ops {
			var err error
			if i%8 == 5 {
				b := i % 4
				items := []service.SolveRequest{solve(fmt.Sprintf("ccb%d-0", b), 2*b), solve(fmt.Sprintf("ccb%d-1", b), 2*b+1)}
				ops[i], err = marshalOp("/v1/batch", service.BatchRequest{Items: items}, len(items), deadline)
			} else {
				ops[i], err = marshalOp("/v1/solve", solve(fmt.Sprintf("cc-%d", i%len(gs)), i), 0, deadline)
			}
			if err != nil {
				return nil, nil, err
			}
		}
		return ops, nil, nil
	}
}

// killStallRevive is the cluster-chaos fault script. After a warm-up and
// a pre-fault throughput sample it kills the backend owning the most
// instances and stalls the runner-up, waits for the prober to eject
// both, lets requests admitted on the old ring run out their deadlines,
// and counts router sends to the killed backend over one more phase
// (must be zero). Then it revives both, waits for the ring to
// reconverge, and samples throughput again (must recover to 80%) and
// sends to the revived backend (must be positive).
func killStallRevive(phase time.Duration) func(*run) error {
	return func(r *run) error {
		owned := map[string]int{}
		for _, g := range graphs(r.s) {
			owned[r.router.Ring().Owner(intern.Ref(g))]++
		}
		victims := [2]int{-1, -1}
		for v := range victims {
			for i, n := range r.nodes {
				if i != victims[0] && (victims[v] < 0 || owned[n.name] > owned[r.nodes[victims[v]].name]) {
					victims[v] = i
				}
			}
			if victims[v] < 0 {
				return fmt.Errorf("bench: cluster-chaos needs 2 backends, have %d", len(r.nodes))
			}
		}
		kill, stall := &r.nodes[victims[0]], &r.nodes[victims[1]]
		m := r.rep.Metrics
		m["victimKill"], m["victimStall"] = float64(victims[0]), float64(victims[1])
		sample := func() float64 {
			n0, t0 := r.ok.Load(), time.Now()
			time.Sleep(phase)
			return float64(r.ok.Load()-n0) / time.Since(t0).Seconds()
		}
		sends := func() int64 { return r.router.Stats().Sends[kill.name] }
		window := 40 * r.s.Probe
		await := func(done func() bool) bool {
			for t0 := time.Now(); !done(); time.Sleep(r.s.Probe / 3) {
				if time.Since(t0) > window {
					return false
				}
			}
			return true
		}

		time.Sleep(phase / 2)
		m["preFaultRps"] = sample()

		killAt := time.Now()
		kill.gate.mode.Store(backendKilled)
		stall.gate.mode.Store(backendStalled)
		ejected := await(func() bool {
			snap := r.prober.Snapshot()
			return snap[kill.name].State == cluster.HealthEjected && snap[stall.name].State == cluster.HealthEjected
		})
		m["timeToEjectMs"] = float64(time.Since(killAt).Milliseconds())
		if !ejected {
			r.rep.violate("prober did not eject both victims within %v", window)
		}
		time.Sleep(r.ops[0].deadline + churnGrace)
		drain0 := sends()
		time.Sleep(phase)
		m["drainSends"] = float64(sends() - drain0)

		kill.gate.mode.Store(backendAlive)
		stall.gate.mode.Store(backendAlive)
		if !await(func() bool { return len(r.router.Ring().Members()) == len(r.nodes) }) {
			r.rep.violate("ring did not reconverge to %d members within %v of revival", len(r.nodes), window)
		}
		revive0 := sends()
		m["postRevivalRps"] = sample()
		m["revivalSends"] = float64(sends() - revive0)

		if m["drainSends"] > 0 {
			r.rep.violate("ejected backend %s received %.0f sends after the settle window", kill.name, m["drainSends"])
		}
		if m["revivalSends"] == 0 {
			r.rep.violate("revived backend %s received no traffic after reconvergence", kill.name)
		}
		if m["preFaultRps"] > 0 {
			m["reconverged"] = m["postRevivalRps"] / m["preFaultRps"]
		}
		if m["reconverged"] < 0.8 {
			r.rep.violate("post-revival throughput %.0f req/s is below 80%% of pre-fault %.0f req/s",
				m["postRevivalRps"], m["preFaultRps"])
		}
		return nil
	}
}

// churnCheck: no request outlived its deadline plus churnGrace.
func churnCheck(r *run) {
	late := 0
	for _, res := range r.results {
		if res.lat > r.ops[res.op].deadline+churnGrace {
			late++
		}
	}
	if late > 0 {
		r.rep.violate("%d requests outlived their deadline + %v", late, churnGrace)
	}
}
