package core

import (
	"context"
	"fmt"
	"time"

	"lpltsp/internal/fault"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/tsp"
)

// AlgoPortfolio is the meta-engine name accepted by Options.Algorithm (and
// the lplsolve -algo flag): instead of a single TSP engine it races a
// roster of exact and heuristic engines concurrently and keeps the best
// verified labeling. It is resolved here, not in the tsp engine table,
// because it composes engines rather than being one.
const AlgoPortfolio tsp.Algorithm = "portfolio"

// AlgoPathCover is the provenance (Result.Algorithm and Result.Winner) of
// a reduction solve answered by an exact path cover of H_a, the graph of
// the lighter weight's pairs on a two-weight instance: no engine ran.
// It is not a registered engine, so it cannot be pinned.
const AlgoPathCover tsp.Algorithm = "pathcover"

// Result is the outcome of solving an L(p)-LABELING instance.
type Result struct {
	Labeling labeling.Labeling
	Span     int
	// Tour is the Hamiltonian path of the reduced instance when the
	// reduction method solved this instance; nil for the other methods.
	Tour tsp.Tour
	// Exact reports whether the span is provably optimal, Span ==
	// λ_p(G): an exact method or engine ran to completion, or, on the
	// reduction route, the path met Reduction.LowerBound, which no
	// Hamiltonian path can undercut (the path-cover bound on two-weight
	// instances, the spanning-tree bound otherwise), or the path walks a
	// minimum path cover of H_a (AlgoPathCover).
	Exact bool
	// Approx is the guaranteed approximation factor when known: 1 for
	// exact results, 1.5 for the Christofides route, pmax for the
	// Corollary 3 fallback, 0 when no bound is claimed (heuristics).
	Approx float64
	// Truncated reports that the solve stopped at a deadline or
	// cancellation and returned its best-so-far (anytime) labeling.
	Truncated bool
	// Method names the planner route that produced this result
	// (MethodComponents for decomposed disconnected inputs,
	// MethodTrivial for the n ≤ 1 / pmax = 0 fast path).
	Method MethodName
	// Algorithm is the TSP engine that ran (reduction method only): the
	// pinned or planner-chosen engine, or AlgoPortfolio for races, where
	// Winner names the engine whose tour won. An unpinned solve answered
	// by a certificate started no engine: it reports tsp.AlgoGreedyEdge
	// as both when the greedy-edge path met Reduction.LowerBound, and
	// AlgoPathCover as both when an exact path cover of H_a answered a
	// two-weight instance.
	Algorithm tsp.Algorithm
	Winner    tsp.Algorithm
	// Stats carries the TSP engine's run statistics (reduction method).
	Stats tsp.Stats
	// CacheHit reports that this result was served from the solve cache
	// rather than recomputed. It is also set on coalesced results.
	CacheHit bool
	// Coalesced reports that this request joined an identical solve that
	// was already in flight (singleflight) and was handed the leader's
	// result: served from shared state like an LRU hit, but before the
	// first solve of the instance had even completed. The leader of a
	// coalesced group reports CacheHit=false, Coalesced=false — exactly
	// one such result exists per group.
	Coalesced bool
	// Remote reports that this result was obtained from the L2 cache
	// tier — the cluster node owning the graph's fingerprint — rather
	// than solved in this process. CacheHit then reflects the OWNER's
	// view (true: served from the owner's L1; false: the owner solved on
	// this cluster's behalf). A remote result is published to the local
	// L1 like any other flight outcome, so later local hits keep
	// Remote=true as provenance of where the entry was filled from.
	Remote bool
	// DeadlineRerouted reports that the learned cost model overrode the
	// planner's static route because the preferred method was predicted
	// to miss the remaining deadline budget (for decomposed solves: any
	// component was rerouted). Rerouted results never enter the solve
	// cache — the cache key excludes deadlines, and a request with more
	// budget must not inherit a hurried route's weaker result.
	DeadlineRerouted bool
	// Plan is the routing decision that produced this result: every
	// method's applicability verdict. Shared, read-only.
	Plan *Plan
	// ReduceTime and SolveTime split the wall time between inspecting /
	// reducing the instance (probe APSP + reduction build) and running
	// the chosen method (experiment E1).
	ReduceTime, SolveTime time.Duration
}

// Options configures Solve.
type Options struct {
	// Method pins a solving method from the method registry. Empty means
	// plan automatically; a pinned method that is not applicable fails
	// with the matching typed error (ErrDisconnected and friends for the
	// reduction) instead of being rerouted.
	Method MethodName
	// Algorithm selects the TSP engine (any name tsp.Algorithms lists, or
	// AlgoPortfolio). Setting it biases the planner
	// toward the reduction method whenever it applies — an explicit
	// engine choice is a statement about how to solve. Empty lets the
	// planner route freely (the reduction then uses the exact engine
	// within its reach and the portfolio beyond it).
	Algorithm tsp.Algorithm
	// Engines is the portfolio roster when the reduction races
	// AlgoPortfolio; empty means a size-appropriate default roster.
	Engines []tsp.Algorithm
	// Chained configures the chained heuristic engine.
	Chained *tsp.ChainedOptions
	// Verify re-checks the produced labeling against the definition
	// (O(n²)); cheap insurance, on by default in the public API. Only
	// verified results enter the solve cache.
	Verify bool
	// NoCache opts this solve out of the memoization cache (no lookup,
	// no insertion).
	NoCache bool
	// Cache routes this solve through an isolated SolveCache instance
	// instead of the library default — one L1, singleflight, watchdog and
	// panic-count domain per serving node when several run in one
	// process (see NewSolveCache). Nil uses the default. Never part of
	// the cache key.
	Cache *SolveCache
	// DisableL2 skips the L2 tier for this solve even when the selected
	// cache has one installed. The serving layer sets it on requests that
	// arrived through the peer-fill protocol itself, so a misconfigured
	// ring (two nodes each believing the other owns a key) degrades to a
	// local solve instead of forwarding forever.
	DisableL2 bool
	// CostModel, when set, closes the planner's feedback loop: every
	// completed method run feeds the model (probe features → wall time),
	// and deadline-bearing solves route by its predictions — the
	// cheapest route predicted to meet the remaining budget — instead of
	// static costs alone (see planSingle). Nil keeps the planner fully
	// static. Never part of the cache key.
	CostModel *CostModel
	// Deadline bounds the whole solve (probe, reduction, and method)
	// when positive; anytime engines return their incumbent labeling
	// with Result.Truncated set when it expires. One coalescing caveat:
	// when the deadline fires while OTHER callers of the same instance
	// keep the shared singleflight solve alive, this caller returns
	// context.DeadlineExceeded instead of a truncated incumbent (the
	// incumbent lives inside engines that are deliberately not stopping);
	// a solve that dies with its last caller still yields its best-so-far.
	Deadline time.Duration
}

// Solve solves L(p)-LABELING on g through the planned pipeline: the
// instance is probed (connectivity, diameter, p-shape), routed to the
// cheapest applicable method — the Theorem 2 TSP reduction (with its
// greedy-path and Corollary 2 path-cover certificates), the Theorem 4 FPT
// coloring, the exact tree algorithm, the Corollary 3
// pmax-approximation, or the first-fit fallback —
// decomposing disconnected inputs into independently solved components.
// Result.Method / Result.Exact / Result.Approx record the route taken.
func Solve(g *graph.Graph, p labeling.Vector, opts *Options) (*Result, error) {
	return SolveContext(context.Background(), g, p, opts)
}

// SolveContext is Solve under a context: cancellation and deadlines
// propagate through the probe and reduction into the engines' cooperative
// checkpoints. Options.Deadline, when set, further bounds the solve.
// Verified results are memoized in the solve cache — Options.Cache, or
// the library default (see SolveCacheStats); repeated instances return
// the cached labeling with Result.CacheHit set.
//
// SolveContext is also the caller-side recover boundary: a panic
// anywhere in the planner pipeline (probe, plan, verify, cache; method
// bodies have their own closer guard in runMethod, and the detached
// singleflight leader its own in runFlight) becomes a typed
// ErrEnginePanic, counted on the solve's cache, instead of unwinding
// into the caller.
func SolveContext(ctx context.Context, g *graph.Graph, p labeling.Vector, opts *Options) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, cacheFor(opts).capturePanic(panicSitePipeline, v)
		}
	}()
	if opts != nil && opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	return solveAny(ctx, g, p, opts)
}

// trivialInstance reports the fast-path cases with nothing to plan: at
// most one vertex, or pmax = 0 (the all-zero labeling is optimal on any
// graph). Pinned engines and forced methods bypass the fast path so their
// legacy semantics (including their errors) are preserved.
func trivialInstance(g *graph.Graph, p labeling.Vector, opts *Options) bool {
	if opts != nil && (opts.Method != "" || opts.Algorithm != "") {
		return false
	}
	if g.N() <= 1 {
		return true
	}
	_, pmax := p.MinMax()
	return pmax == 0
}

// trivialPlan is the provenance of the fast path, shared by Solve and
// Explain. One O(n+m) sweep keeps Connected/Components honest even for
// multi-vertex pmax = 0 instances.
func trivialPlan(g *graph.Graph) *Plan {
	comps := len(g.ConnectedComponents())
	return &Plan{
		Chosen:     MethodTrivial,
		N:          g.N(),
		M:          g.M(),
		Connected:  comps <= 1,
		Components: comps,
	}
}

func trivialResult(g *graph.Graph) *Result {
	return &Result{
		Labeling: make(labeling.Labeling, g.N()),
		Exact:    true,
		Approx:   1,
		Method:   MethodTrivial,
		Plan:     trivialPlan(g),
	}
}

// solveAny is the planner pipeline body shared by whole-graph solves and
// per-component recursion: trivial fast path → cache lookup + singleflight
// coalescing → L2 consult (flight leaders only, when a second tier is
// installed) → component decomposition or single-instance plan+solve →
// verification → cache insertion. Cacheable solves run under the flight's
// context (alive while any coalesced caller remains interested); uncached
// solves run directly under the caller's.
func solveAny(ctx context.Context, g *graph.Graph, p labeling.Vector, opts *Options) (*Result, error) {
	if trivialInstance(g, p, opts) {
		return trivialResult(g), nil
	}
	if !cacheable(opts) {
		return solveUncached(ctx, g, p, opts)
	}
	c := cacheFor(opts)
	key := cacheKeyFor(g, p, opts)
	return c.solveCoalesced(ctx, key, func(fctx context.Context) (*Result, error) {
		if l2 := c.loadL2(); l2 != nil && !opts.DisableL2 {
			res, handled, err := l2.GetOrSolve(fctx, g, p, opts)
			if handled {
				if err != nil {
					// A handled failure fails the flight; it is a failed
					// consult, not a flight the peer answered.
					c.l2Fallbacks.Add(1)
					return res, err
				}
				c.l2Served.Add(1)
				res.Remote = true
				if res.CacheHit {
					c.l2PeerHits.Add(1)
				}
				return res, nil
			}
			if err != nil {
				c.l2Fallbacks.Add(1)
			}
		}
		return solveUncached(fctx, g, p, opts)
	})
}

// solveUncached is the actual solve body below the cache/singleflight
// front door. Component flights nest under whole-graph flights (a leader
// for a disconnected instance may follow per-component flights), and the
// nesting is acyclic — components are connected, so their solves never
// wait on another flight.
func solveUncached(ctx context.Context, g *graph.Graph, p labeling.Vector, opts *Options) (*Result, error) {
	if comps := g.ConnectedComponents(); opts.Method == "" && len(comps) > 1 {
		return solveComponents(ctx, g, p, opts, comps)
	}
	return solveSingle(ctx, g, p, opts)
}

// solveSingle probes one graph (connected unless Options.Method forces a
// method onto a disconnected input), plans, runs the chosen method, and
// verifies the labeling.
func solveSingle(ctx context.Context, g *graph.Graph, p labeling.Vector, opts *Options) (*Result, error) {
	t0 := time.Now()
	pr, err := newProbe(ctx, g)
	if err != nil {
		return nil, err
	}
	pl, m, err := planSingle(pr, p, opts, remainingBudget(ctx))
	if err != nil {
		return nil, err
	}
	probeTime := time.Since(t0)
	t1 := time.Now()
	res, err := runMethod(ctx, m, pr, p, opts)
	if err != nil {
		return nil, err
	}
	if res.Method == "" {
		res.Method = m.Name()
	}
	if res.SolveTime == 0 {
		// Non-reduction methods don't split their own clock; charge the
		// whole method run as solve time.
		res.SolveTime = time.Since(t1)
	}
	res.Plan = pl
	res.DeadlineRerouted = pl.DeadlineRerouted
	res.ReduceTime += probeTime
	if opts.CostModel != nil && !res.Truncated {
		// Feed the planner's feedback loop: one observation per completed
		// (untruncated) method run. Truncated runs are skipped — their
		// wall time measures the deadline, not the method.
		_, pmax := p.MinMax()
		opts.CostModel.Observe(m.Name(), pr.N, pr.M, pr.Diameter, pmax, res.SolveTime)
	}
	if opts.Verify {
		// A probe that built no matrix verifies from adjacency when
		// len(p) ≤ 2, where labeling.Verify needs none; otherwise the
		// matrix is built now if no route read it, and a canceled context
		// is the solve's error.
		var err error
		if pr.dist == nil && len(p) <= 2 {
			err = labeling.Verify(pr.G, p, res.Labeling)
		} else if dm, derr := pr.Dist(); derr != nil {
			return nil, derr
		} else {
			err = labeling.VerifyWithMatrix(dm, p, res.Labeling)
		}
		if err != nil {
			return nil, fmt.Errorf("core: internal error, method %s produced invalid labeling: %w", res.Method, err)
		}
	}
	return res, nil
}

// runMethod executes one planned method under its own recover boundary,
// with exact attribution (m.Name()) on both the panic error and the
// cache's per-method panic count. The planned name is also parked on the
// enclosing singleflight flight, when there is one, so a later watchdog
// kill of this solve can name the method that wedged. The fault.Visit is
// the chaos harness's core injection site: right where a buggy engine
// would fault.
func runMethod(ctx context.Context, m Method, pr *Probe, p labeling.Vector, opts *Options) (res *Result, err error) {
	if f, ok := ctx.Value(flightCtxKey{}).(*flight); ok {
		f.method.Store(m.Name())
	}
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, cacheFor(opts).capturePanic(m.Name(), v)
		}
	}()
	fault.Visit(ctx, fault.SiteCoreMethod)
	return m.Solve(ctx, pr, p, opts)
}

// resultFromTour recovers the labeling from an engine tour and assembles a
// Result (without timings).
func (r *Reduction) resultFromTour(tour tsp.Tour, algo tsp.Algorithm, stats tsp.Stats, verify bool) (*Result, error) {
	lab, span, err := r.LabelingFromTour(tour)
	if err != nil {
		return nil, err
	}
	if verify {
		if err := labeling.VerifyWithMatrix(r.Dist, r.P, lab); err != nil {
			return nil, fmt.Errorf("core: internal error, produced labeling invalid: %w", err)
		}
	}
	return &Result{
		Labeling:  lab,
		Span:      span,
		Tour:      tour,
		Exact:     stats.Optimal && !stats.Truncated,
		Truncated: stats.Truncated,
		Algorithm: algo,
		Winner:    algo,
		Stats:     stats,
	}, nil
}

// Lambda computes λ_p(G) exactly — through the reduction (Corollary 1:
// O(2ⁿn²) via Held–Karp) when it applies, or any other exact planner
// route (tree, FPT coloring, component decomposition of those). Unlike Solve, Lambda never degrades silently: when no exact
// method reaches the instance it returns an error rather than an
// approximate span.
func Lambda(g *graph.Graph, p labeling.Vector) (int, error) {
	res, err := Solve(g, p, &Options{Algorithm: tsp.AlgoExact})
	if err != nil {
		return 0, err
	}
	if !res.Exact {
		return 0, fmt.Errorf("core: no exact method reaches this instance (planner route %s has factor %v); λ not computed", res.Method, res.Approx)
	}
	return res.Span, nil
}

// Approximate computes a solution with span ≤ 1.5·λ_p(G) in polynomial
// time via the Christofides/Hoogeveen path pipeline (Corollary 1's second
// half), or any exact planner route (which is trivially within the
// factor). When the planner can only reach the instance with a weaker
// guarantee it returns an error instead of silently exceeding the bound.
func Approximate(g *graph.Graph, p labeling.Vector) (*Result, error) {
	res, err := Solve(g, p, &Options{Algorithm: tsp.AlgoChristofides, Verify: true})
	if err != nil {
		return nil, err
	}
	if res.Approx == 0 || res.Approx > 1.5 {
		return nil, fmt.Errorf("core: no 1.5-approximation reaches this instance (planner route %s has factor %v)", res.Method, res.Approx)
	}
	return res, nil
}

// Heuristic computes a solution with the chained local-search engine (the
// paper's "use LK-style TSP heuristics" practical recipe) when the
// reduction applies; outside the reduction's hypotheses the planner
// routes to whatever method reaches the instance (see Result.Method).
func Heuristic(g *graph.Graph, p labeling.Vector, chained *tsp.ChainedOptions) (*Result, error) {
	return Solve(g, p, &Options{Algorithm: tsp.AlgoChained, Chained: chained, Verify: true})
}
