// Command lplperf is the repository's benchmark: it serves four open-loop
// traffic mixes through the real HTTP handlers, in process and without
// sockets, verifies the labelings it gets back, and prints every
// end-to-end and per-layer metric by name with its unit.
//
// It drives the program only through public entry points —
// service.NewServer(...).ServeHTTP, and cluster.NewRouter over
// cluster.HandlerDoer backends — with lplserve's and lplrouter's default
// configuration, no fault injection, and no benchmark-only methods. The
// load generator stays within nproc threads and opens no connections, so
// the numbers measure the handler and below, not loopback TCP.
//
// # Running
//
// lplperf is its own module beside the repository's, importing it through
// a replace directive. From this directory:
//
//	go run . -seed 2023 -out run.json     # every workload, one child process each
//	go run . -workload cold-solve         # one workload, in this process
//	go run . -trace                       # also the traced run (trace-<workload>.json under -dir)
//	go run . -compare base1.json,base2.json,base3.json new1.json,new2.json,new3.json
//	go test ./...                         # smoke run of every workload, and the loader tests
//
// From the repository root, bash cmd/lplperf/bench.sh builds the binary
// into .bench_build and runs it with the same flags, ending its output
// with one JSON line that carries exactly the metrics BENCHMARK.json
// lists. Each workload runs in its own process because the solver keeps
// process-global state (method counters, the watchdog). A run exits
// non-zero when any labeling fails verification.
//
// # Workloads
//
// workloads.json freezes the parameters: working sets, step rates in
// absolute req/s, SLOs and tail percentiles. The rates were set on the
// seed commit where every step still meets its SLO with room for the
// speed swings of a shared machine. On the hot workloads that is far
// below closed-loop capacity: with one worker slot per node, the open
// loop queues into 429s near 20k req/s on hot-ref and 4.5k req/s on
// cluster-ref. baseline.json holds the seed commit's medians and
// quartiles from three runs, with the machine they ran on.
//
//   - hot-ref: single node, graphRef solves over 64 interned n=64 graphs,
//     all cache hits after set-up. The service, intern and cache path does
//     the work: a hot-path gain shows here, an engine gain must not.
//   - cold-solve: single node, never-repeated full JSON bodies, n in
//     {32,48,64,80,96}. Decode, APSP, reduction, TSP race and verification
//     dominate: an engine or reduction gain shows here (hot-ref is its
//     control).
//   - mixed-deadline: single node, Zipf graphRef reads beside interning
//     writes, deadline-bearing binary tree solves and NDJSON batches. A
//     hot-read optimisation that costs writes, deadlines or batches shows
//     here.
//   - cluster-ref: a router over three peer-filled backends with breakers,
//     retry budget, adaptive hedging and the health prober; the working set
//     fits each backend's cache share but not one cache.
//
// Mixes are dealt from seeded decks in exact proportions, so a
// percentile does not jump between request classes from seed to seed.
//
// # Phases
//
// Set-up (building the topology, interning and warm-up solves) runs
// several times; setup_s is the median. The measured part is a number of
// rounds, each a closed-loop capacity window (nproc clients) followed by
// the low, mid and high open-loop steps; every figure pools its phase over
// all rounds, so a slow stretch of a shared machine lands on every phase
// rather than on one. Finally a fixed quality set is solved one instance
// at a time. -seconds splits between the phases by the shares in
// workloads.json.
//
// Open-loop arrivals are Poisson, generated before any clock starts. One
// dispatcher sends every arrival already due, each on its own goroutine,
// and sleeps until the next is due; latency runs from the intended send
// time to the last response byte (the last NDJSON line of a batch), so a
// stall shows in every request due during it. More than 8192 outstanding
// requests count as failed. Responses are checked after each step ends:
// all of them on cold-solve and mixed-deadline, a seeded 1-in-64 sample on
// the hot workloads.
//
// # End-to-end metrics
//
//	setup_s           median set-up wall time
//	capacity_rps      closed-loop successful completions per second
//	max_rate_rps      achieved rate of the highest step that met its SLO:
//	                  at least the tail share of requests within the SLO
//	                  (a failure misses), at most 1% failed, and no
//	                  backlog (the last response within one SLO of the
//	                  last send)
//	goodput_rps.high  responses within their SLO per second of the high
//	                  step's wall time (first intended send to last byte)
//	p50_ms.<step>     median latency at mid and high
//	tail_ms.<step>    p99 (hot-ref, cluster-ref) or p90 (the others)
//	fail_ratio        (non-200 + refused + overflow + unverified) / attempted
//	span_ratio        Σ span / Σ lower bound over the quality set, the bound
//	                  being max(PathLowerBound, CliqueLowerBound)
//	exact_ratio       share of quality-set results with exact: true
//	heap_live_mb      median live heap over the measured phases, sampled at
//	                  10 Hz from runtime/metrics (no stop-the-world)
//
// BENCHMARK.json lists the ones whose run-to-run spread stays inside
// their bound on a shared two-CPU machine; the run record keeps them all,
// with per-step figures.
//
// # Per-layer metrics
//
// Gauges and counters come from the measured run: /v1/stats sampled at
// 20 Hz and its deltas (service.*, intern.hit_ratio, core.cache.*), the
// router's Stats deltas (cluster.*), response fields (core.route_share.*,
// tsp.winner_share.*), runtime/metrics (runtime.*) and the generator
// itself (loadgen.*). Timings come from the traced run (-trace): a fresh
// topology replays up to 16 set-up requests of each kind and then the
// first scheduled requests, one at a time, and around each calls the
// layers' public functions on the same input, recording spans (request,
// service.envelope, graph.decode.json|binary, graph.fingerprint,
// intern.get/put, core.cache_hit, graph.apsp, core.plan, core.reduce,
// core.method, tsp.engine.<algo>, labeling.verify, service.encode,
// cluster.hop, cluster.peerfill) only for layers the response shows were
// used. For a reduction, core.method is the roster race re-run over the
// shared reduction with one span per engine; for other methods it is
// Result.SolveTime of a NoCache solve. Each <layer>_us metric is that
// span's mean self time; service.self_us is the part of the request no
// layer span covers. trace.child_share is the median share of a request
// its layer spans account for.
//
// # Comparing
//
// -compare takes comma-separated lists of run records, the first being
// the base. For every (workload, end-to-end metric) in BENCHMARK.json it
// prints each side's median and quartiles and a verdict against the
// metric's bound: better, within, worse, or unresolved when either side's
// quartile spread is wider than the bound.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"lpltsp/internal/cluster"
	"lpltsp/internal/core"
	"lpltsp/internal/labeling"
	"lpltsp/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	dir      string
	bench    string
}

func run(args []string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "lplperf:", err)
		return 2
	}
	fs := flag.NewFlagSet("lplperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, one child process each)")
	fs.Uint64Var(&o.seed, "seed", spec.Seed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", spec.RunSeconds, "measured seconds per workload (closed loop plus the three steps)")
	fs.BoolVar(&o.trace, "trace", false, "also do the traced run and report per-layer timings")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny working sets and one set-up (tests)")
	fs.StringVar(&o.out, "out", "", "write the run record (JSON) here")
	fs.StringVar(&o.dir, "dir", ".bench_build/lplperf", "directory for trace-<workload>.json and child-process records")
	fs.StringVar(&o.bench, "bench", "", "BENCHMARK.json: end the output with one JSON line carrying exactly its metrics")
	compare := fs.Bool("compare", false, "compare run records: lplperf -compare base[,base…] new[,new…] [more…]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(fs.Args(), o.bench, stdout); err != nil {
			fmt.Fprintln(stderr, "lplperf:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "lplperf: unexpected arguments %v\n", fs.Args())
		return 2
	}
	rec := &RunRecord{Schema: "lplperf/1", Meta: meta(o, o.out != "")}
	if o.workload != "" {
		w, err := spec.workload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "lplperf:", err)
			return 2
		}
		wr, err := runWorkload(spec, w, o, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "lplperf:", err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, wr)
	} else if err := runChildren(spec, o, rec, stderr); err != nil {
		fmt.Fprintln(stderr, "lplperf:", err)
		return 1
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "lplperf:", err)
			return 1
		}
	}
	printRecord(stdout, rec)
	if o.bench != "" && len(rec.Workloads) == 1 {
		if err := printContract(stdout, rec.Workloads[0], o); err != nil {
			fmt.Fprintln(stderr, "lplperf:", err)
			return 1
		}
	}
	for _, w := range rec.Workloads {
		if !w.Correct {
			fmt.Fprintf(stderr, "lplperf: %s: %d responses failed verification\n", w.Name, w.Unverified)
			return 1
		}
	}
	return 0
}

// runChildren runs every workload in its own child process and gathers
// their records.
func runChildren(spec *Spec, o options, rec *RunRecord, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		tmp := filepath.Join(o.dir, ".lplperf-"+w.Name+".json")
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-dir", o.dir, "-out", tmp, fmt.Sprintf("-trace=%v", o.trace), fmt.Sprintf("-smoke=%v", o.smoke)}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		runErr := cmd.Run()
		data, err := os.ReadFile(tmp)
		os.Remove(tmp)
		if err != nil {
			return fmt.Errorf("%s: %v (child: %v)", w.Name, err, runErr)
		}
		var child RunRecord
		if err := json.Unmarshal(data, &child); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rec.Workloads = append(rec.Workloads, child.Workloads...)
	}
	return nil
}

// RunRecord is the one output schema of a run.
type RunRecord struct {
	Schema    string            `json:"schema"`
	Meta      Meta              `json:"meta"`
	Workloads []*WorkloadRecord `json:"workloads"`
}

// Meta identifies what ran and where.
type Meta struct {
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPU        string  `json:"cpu,omitempty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func meta(o options, withCPU bool) Meta {
	m := Meta{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	if withCPU {
		m.CPU = cpuModel()
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// WorkloadRecord is one workload's results.
type WorkloadRecord struct {
	Name       string            `json:"name"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Unverified int               `json:"unverified"`
	SetupS     []float64         `json:"setup_s"`
	Capacity   Phase             `json:"capacity"`
	Steps      []StepResult      `json:"steps"`
	Quality    Phase             `json:"quality"`
	Metrics    map[string]Metric `json:"metrics"`
	PerLayer   map[string]Metric `json:"per_layer"`
	TraceFile  string            `json:"trace_file,omitempty"`
}

// Phase counts one phase's requests.
type Phase struct {
	Attempted   int     `json:"attempted"`
	Succeeded   int     `json:"succeeded"`
	Failed      int     `json:"failed"`
	AchievedRPS float64 `json:"achieved_rps,omitempty"`
}

// StepResult is one open-loop step.
type StepResult struct {
	Name string  `json:"name"`
	Rate float64 `json:"rate_rps"`
	Secs float64 `json:"duration_s"`
	Phase
	Unverified     int     `json:"unverified"`
	Overflow       int     `json:"overflow"`
	GoodputRPS     float64 `json:"goodput_rps"`
	P50ms          float64 `json:"p50_ms"`
	Tailms         float64 `json:"tail_ms"`
	TailPct        float64 `json:"tail_pct"`
	TailSamples    int     `json:"tail_samples"` // samples past the tail percentile
	WithinSLO      float64 `json:"within_slo"`   // share of attempted requests answered within their SLO
	SLOMet         bool    `json:"slo_met"`
	DrainS         float64 `json:"drain_s"`
	LagP99ms       float64 `json:"lag_p99_ms"`
	OutstandingMax int64   `json:"outstanding_max"`
}

// runWorkload runs one workload in this process.
func runWorkload(spec *Spec, w *WorkloadSpec, o options, progress io.Writer) (*WorkloadRecord, error) {
	in := buildInputs(spec, w, o.seed, o.seconds, o.smoke)
	rec := &WorkloadRecord{Name: w.Name, Metrics: map[string]Metric{}, PerLayer: map[string]Metric{}}
	repeats := spec.SetupRepeats
	if o.smoke {
		repeats = 1
	}
	var e *env
	for k := 0; k < repeats; k++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		var d time.Duration
		var err error
		if e, d, err = setUp(in.traffic); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rec.SetupS = append(rec.SetupS, d.Seconds())
	}
	defer e.close()
	fmt.Fprintf(progress, "%s: set-up %v\n", w.Name, rec.SetupS)

	statsBefore, err := e.stats()
	if err != nil {
		return nil, err
	}
	routerBefore := routerStats(e)
	rtBefore := readRuntime()
	smp := startSampler(func() (float64, float64) {
		st, _ := e.stats()
		return float64(st.Queued), float64(st.InFlight)
	})
	capDur := spec.phaseDuration(o.seconds, spec.CapacityShare)
	resp := &responseMix{routes: map[string]int{}, winners: map[string]int{}}
	accs := make([]stepAcc, len(spec.Steps))
	var capOK int
	var capTime time.Duration
	for r, steps := range in.rounds {
		ok, failed, elapsed := runClosed(e.handler, in.capacity[r], in.cycle, capDur)
		capOK, capTime = capOK+ok, capTime+elapsed
		rec.Capacity.Attempted += ok + failed
		rec.Capacity.Failed += failed
		for i, arr := range steps {
			accs[i].add(arr, runOpen(e.handler, arr), resp)
		}
	}
	smp.finish()
	rtAfter := readRuntime()
	statsAfter, err := e.stats()
	if err != nil {
		return nil, err
	}
	routerAfter := routerStats(e)
	rec.Capacity.Succeeded = capOK
	rec.Capacity.AchievedRPS = float64(capOK) / capTime.Seconds()

	var lags []time.Duration
	stepAttempted := 0
	for i, st := range spec.Steps {
		sr := accs[i].result(st, w, spec.phaseDuration(o.seconds, st.Share))
		rec.Steps = append(rec.Steps, sr)
		rec.Unverified += sr.Unverified
		lags = append(lags, accs[i].lags...)
		stepAttempted += sr.Attempted
	}
	rec.Quality = quality(e, in.quality, rec, resp)
	rec.Attempted = rec.Capacity.Attempted + rec.Quality.Attempted
	rec.Failed = rec.Capacity.Failed + rec.Quality.Failed
	stepFailed := 0
	for _, sr := range rec.Steps {
		rec.Attempted += sr.Attempted
		rec.Failed += sr.Failed
		stepFailed += sr.Failed
	}
	rec.Correct = rec.Unverified == 0

	m := rec.Metrics
	m["setup_s"] = Metric{median(rec.SetupS), "s"}
	m["capacity_rps"] = Metric{rec.Capacity.AchievedRPS, "req/s"}
	// The achieved rate of the highest step that met its SLO: the step
	// rates are frozen, so this moves by a whole step when a step stops
	// meeting its SLO and otherwise reads the load actually carried.
	maxRate := 0.0
	for _, sr := range rec.Steps {
		if sr.SLOMet {
			maxRate = math.Max(maxRate, sr.AchievedRPS)
		}
	}
	m["max_rate_rps"] = Metric{maxRate, "req/s"}
	for _, sr := range rec.Steps {
		if sr.Name == "high" {
			m["goodput_rps.high"] = Metric{sr.GoodputRPS, "req/s"}
		}
		if sr.Name == "mid" || sr.Name == "high" {
			m["p50_ms."+sr.Name] = Metric{sr.P50ms, "ms"}
			m["tail_ms."+sr.Name] = Metric{sr.Tailms, "ms"}
		}
	}
	m["fail_ratio"] = Metric{float64(stepFailed) / float64(max(1, stepAttempted)), "ratio"}
	if q := rec.Quality; q.Attempted > 0 {
		m["span_ratio"] = Metric{float64(resp.qualitySpan) / float64(max(1, resp.qualityLB)), "ratio"}
		m["exact_ratio"] = Metric{float64(resp.qualityExact) / float64(q.Attempted), "ratio"}
	}
	// The median of the 10 Hz samples, not their peak: the peak depends on
	// where the last GC cycles happened to fall and moves run to run.
	m["heap_live_mb"] = Metric{median(smp.heap) / (1 << 20), "MB"}

	pl := rec.PerLayer
	heapPeak := 0.0
	for _, h := range smp.heap {
		heapPeak = math.Max(heapPeak, h)
	}
	pl["runtime.heap_peak_mb"] = Metric{heapPeak / (1 << 20), "MB"}
	pl["service.queued_mean"] = Metric{mean(smp.queued), "jobs"}
	pl["service.inflight_mean"] = Metric{mean(smp.inflight), "jobs"}
	pl["service.rejected"] = Metric{float64(statsAfter.Rejected - statsBefore.Rejected), "count"}
	pl["service.shed"] = Metric{float64(statsAfter.Sched.Sheds - statsBefore.Sched.Sheds), "count"}
	pl["service.infeasible"] = Metric{float64(statsAfter.Sched.InfeasibleRejected - statsBefore.Sched.InfeasibleRejected), "count"}
	ratio := func(name string, num, den int64) {
		if den > 0 {
			pl[name] = Metric{float64(num) / float64(den), "ratio"}
		}
	}
	dHits, dMiss := statsAfter.Graphs.Hits-statsBefore.Graphs.Hits, statsAfter.Graphs.Misses-statsBefore.Graphs.Misses
	ratio("intern.hit_ratio", dHits, dHits+dMiss)
	cHits, cMiss := statsAfter.Cache.Hits-statsBefore.Cache.Hits, statsAfter.Cache.Misses-statsBefore.Cache.Misses
	ratio("core.cache.hit_ratio", cHits, cHits+cMiss)
	pl["core.cache.coalesced"] = Metric{float64(statsAfter.Cache.Coalesced - statsBefore.Cache.Coalesced), "count"}
	for k, v := range resp.routes {
		ratio("core.route_share."+k, int64(v), int64(resp.solved))
	}
	for k, v := range resp.winners {
		ratio("tsp.winner_share."+k, int64(v), int64(resp.reduced))
	}
	if e.router != nil {
		d := func(a, b int64) Metric { return Metric{float64(b - a), "count"} }
		pl["cluster.retries"] = d(routerBefore.Retries, routerAfter.Retries)
		pl["cluster.hedged"] = d(routerBefore.Hedged, routerAfter.Hedged)
		ratio("cluster.hedge_win_ratio", routerAfter.HedgeWins-routerBefore.HedgeWins, routerAfter.Hedged-routerBefore.Hedged)
		pl["cluster.breaker_trips"] = d(routerBefore.Breakers.Trips, routerAfter.Breakers.Trips)
		pl["cluster.l2_served"] = d(statsBefore.Cache.L2Served, statsAfter.Cache.L2Served)
		pl["cluster.l2_fallbacks"] = d(statsBefore.Cache.L2Fallbacks, statsAfter.Cache.L2Fallbacks)
		var total, busiest int64
		for name, n := range routerAfter.PerBackend {
			dn := n - routerBefore.PerBackend[name]
			total += dn
			busiest = max(busiest, dn)
		}
		ratio("cluster.busiest_share", busiest, total)
	}
	pl["runtime.alloc_bytes_per_req"] = Metric{(rtAfter.allocBytes - rtBefore.allocBytes) / float64(max(1, stepAttempted+rec.Capacity.Attempted)), "bytes"}
	if cpu := rtAfter.totalCPU - rtBefore.totalCPU; cpu > 0 {
		pl["runtime.gc_cpu_fraction"] = Metric{(rtAfter.gcCPU - rtBefore.gcCPU) / cpu, "ratio"}
	}
	sortDurations(lags)
	pl["loadgen.lag_p99_ms"] = Metric{ms(percentile(lags, 99)), "ms"}
	outstandingMax := int64(0)
	for _, sr := range rec.Steps {
		outstandingMax = max(outstandingMax, sr.OutstandingMax)
	}
	pl["loadgen.outstanding_max"] = Metric{float64(outstandingMax), "count"}

	if o.trace {
		e.close()
		limit := w.TraceN
		if o.smoke {
			limit = 16
		}
		tr, err := traceWorkload(w, in, o.dir, limit)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.Name, err)
		}
		for k, v := range tr.perLayer {
			pl[k] = v
		}
		pl["trace.child_share"] = Metric{tr.childMed, "ratio"}
		rec.TraceFile = tr.file
	}
	return rec, nil
}

func routerStats(e *env) (st cluster.RouterStats) {
	if e.router != nil {
		st = e.router.Stats()
	}
	return st
}

// responseMix tallies response fields of the checked responses.
type responseMix struct {
	routes, winners                      map[string]int
	solved, reduced                      int
	qualitySpan, qualityLB, qualityExact int
}

func (rm *responseMix) add(r *service.SolveResponse) {
	if r.CacheHit {
		return
	}
	rm.solved++
	rm.routes[r.Method]++
	if r.Method == string(core.MethodReduction) {
		rm.reduced++
		rm.winners[r.Winner]++
	}
}

// stepAcc accumulates one step over the rounds.
type stepAcc struct {
	StepResult
	lats, lags []time.Duration
	within     int
	wall       time.Duration
	backlog    bool
	rounds     int
}

// add checks one round's kept responses, after the round's step has
// ended, and folds the round in.
func (a *stepAcc) add(arr []arrival, run *openRun, rm *responseMix) {
	var maxSLO time.Duration
	for i, ar := range arr {
		out := run.out[i]
		a.Attempted++
		maxSLO = max(maxSLO, ar.req.slo)
		ok := out.status == http.StatusOK
		if out.status == statusOverflow {
			a.Overflow++
		}
		if ok && ar.keep {
			v := check(ar.req, out.status, out.body)
			if v.invalid {
				a.Unverified++
			}
			ok = v.ok && !v.invalid
			for j := range v.resps {
				rm.add(&v.resps[j])
			}
		}
		if !ok {
			a.Failed++
			continue
		}
		a.Succeeded++
		a.lats = append(a.lats, out.lat)
		if out.lat <= ar.req.slo {
			a.within++
		}
	}
	a.lags = append(a.lags, run.lags...)
	// A backlog still draining one SLO after the last send means the
	// step's load outran the server.
	a.backlog = a.backlog || run.drain > maxSLO
	a.OutstandingMax = max(a.OutstandingMax, run.outstandingMax)
	a.DrainS = max(a.DrainS, run.drain.Seconds())
	a.wall += run.wall
	a.rounds++
}

// result computes the step's latency and SLO figures over every round;
// dur is one round's step duration.
func (a *stepAcc) result(st StepSpec, w *WorkloadSpec, dur time.Duration) StepResult {
	sr := a.StepResult
	sr.Name, sr.Rate, sr.TailPct = st.Name, w.RatesRPS[st.Name], w.TailPct
	sr.Secs = dur.Seconds() * float64(a.rounds)
	sortDurations(a.lats)
	sr.P50ms = ms(percentile(a.lats, 50))
	sr.Tailms = ms(percentile(a.lats, w.TailPct))
	sr.TailSamples = len(a.lats) - int(math.Ceil(w.TailPct/100*float64(len(a.lats))))
	if sr.Attempted > 0 {
		sr.WithinSLO = float64(a.within) / float64(sr.Attempted)
		sr.GoodputRPS = float64(a.within) / a.wall.Seconds()
		sr.AchievedRPS = float64(sr.Succeeded) / a.wall.Seconds()
	}
	sr.SLOMet = sr.Attempted > 0 && sr.WithinSLO >= w.TailPct/100 &&
		float64(sr.Failed) <= 0.01*float64(sr.Attempted) && !a.backlog
	lags := append([]time.Duration(nil), a.lags...)
	sortDurations(lags)
	sr.LagP99ms = ms(percentile(lags, 99))
	return sr
}

// quality solves the fixed quality set one instance at a time and records
// Σ span, Σ lower bound and exact results into rm.
func quality(e *env, qs []*request, rec *WorkloadRecord, rm *responseMix) Phase {
	var ph Phase
	for _, q := range qs {
		ph.Attempted++
		status, body := serve(e.handler(q), q, true)
		v := check(q, status, body)
		if v.invalid {
			rec.Unverified++
		}
		if !v.ok || v.invalid {
			ph.Failed++
			continue
		}
		ph.Succeeded++
		g, r := q.graphs[0], v.resps[0]
		rm.qualitySpan += r.Span
		rm.qualityLB += max(labeling.PathLowerBound(g.N(), q.p), labeling.CliqueLowerBound(g, q.p))
		if r.Exact {
			rm.qualityExact++
		}
	}
	return ph
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printRecord prints every metric of every workload with its unit.
func printRecord(w io.Writer, rec *RunRecord) {
	for _, wr := range rec.Workloads {
		fmt.Fprintf(w, "== %s  correct=%v attempted=%d failed=%d\n", wr.Name, wr.Correct, wr.Attempted, wr.Failed)
		for _, sr := range wr.Steps {
			fmt.Fprintf(w, "  step %-4s rate %8.1f req/s  sent %6d ok %6d failed %4d  p50 %9.3f ms  p%.0f %9.3f ms (%d past)  within-SLO %.4f  lag p99 %.3f ms\n",
				sr.Name, sr.Rate, sr.Attempted, sr.Succeeded, sr.Failed, sr.P50ms, sr.TailPct, sr.Tailms, sr.TailSamples, sr.WithinSLO, sr.LagP99ms)
		}
		for _, part := range []map[string]Metric{wr.Metrics, wr.PerLayer} {
			names := make([]string, 0, len(part))
			for k := range part {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, part[k].Value, part[k].Unit)
			}
		}
	}
}

// printContract ends the output with one JSON line carrying exactly the
// metrics BENCHMARK.json lists: its end-to-end metrics, or with -trace its
// per-layer metrics.
func printContract(w io.Writer, wr *WorkloadRecord, o options) error {
	b, err := loadBench(o.bench)
	if err != nil {
		return err
	}
	var names []string
	src := wr.Metrics
	if o.trace {
		src = wr.PerLayer
		for _, m := range b.PerLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range b.EndToEnd {
			names = append(names, m.Name)
		}
	}
	out := map[string]Metric{}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", wr.Name, n)
		}
		out[n] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
