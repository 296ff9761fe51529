package core

import (
	"context"
	"fmt"
	"time"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/modular"
)

// Probe is the per-instance inspection record the planner routes on: the
// graph's size, connectivity, diameter, and distance matrix, plus lazily
// memoized derived structure (graph powers, neighborhood diversity of
// powers) that only some applicability checks need. The distance matrix is
// the same one the reduction and verification reuse, so probing costs one
// APSP — work the solve needed anyway — and the diameter and connectivity
// come with it.
//
// A Probe is built and consumed by one solve; it is not safe for
// concurrent use (the memo maps are unsynchronized).
type Probe struct {
	G         *graph.Graph
	N, M      int
	Connected bool
	// Diameter is the largest finite distance (the diameter when
	// Connected; the largest intra-component distance otherwise).
	Diameter int
	Dist     *graph.DistMatrix

	pow   map[int]*graph.Graph
	ndPow map[int]int
}

// newProbe inspects g with one APSP: bit-parallel sweeps over batches of
// 64 sources, O(D·(n+m)) word operations per batch on a graph of diameter
// D, or scalar BFS at O(n+m) per source when the first batch shows the
// sources share too little (graph.AllPairsDistancesContext's sharing
// rule). The sweep records the diameter and connectivity, so no scan of
// the matrix follows. The returned probe owns nothing mutable in g; the
// distance matrix is shared read-only downstream exactly as in
// ReduceContext's memory model.
func newProbe(ctx context.Context, g *graph.Graph) (*Probe, error) {
	dm, err := g.AllPairsDistancesContext(ctx)
	if err != nil {
		return nil, err
	}
	diam, disconnected := dm.Max()
	return &Probe{
		G:         g,
		N:         g.N(),
		M:         g.M(),
		Connected: !disconnected,
		Diameter:  diam,
		Dist:      dm,
	}, nil
}

// PowerGraph returns Gᵏ, built from the probe's distance matrix (vertices
// at distance ≤ k become adjacent) and memoized per k.
func (pr *Probe) PowerGraph(k int) *graph.Graph {
	if k <= 1 {
		return pr.G
	}
	if pr.pow == nil {
		pr.pow = map[int]*graph.Graph{}
	}
	if h, ok := pr.pow[k]; ok {
		return h
	}
	h := graph.New(pr.N)
	for u := 0; u < pr.N; u++ {
		row := pr.Dist.Row(u)
		for v := u + 1; v < pr.N; v++ {
			if row[v] != graph.Unreachable && int(row[v]) <= k {
				h.AddEdge(u, v)
			}
		}
	}
	h.Normalize()
	pr.pow[k] = h
	return h
}

// NDOfPower returns nd(Gᵏ), memoized per k.
func (pr *Probe) NDOfPower(k int) int {
	if pr.ndPow == nil {
		pr.ndPow = map[int]int{}
	}
	if ell, ok := pr.ndPow[k]; ok {
		return ell
	}
	ell, _ := modular.ND(pr.PowerGraph(k))
	pr.ndPow[k] = ell
	return ell
}

// Candidate records one method's applicability verdict inside a Plan.
type Candidate struct {
	Method     MethodName
	Applicable bool
	// Exact / Approx mirror Applicability: provably optimal, guaranteed
	// factor (> 0), or unbounded heuristic (Approx = 0, Exact = false).
	Exact  bool
	Approx float64
	// Cost is the planner's relative running-cost estimate.
	Cost float64
	// Predicted is the learned cost model's latency estimate for this
	// method on this instance (0 when the model has too few observations
	// of the method, or no model / no deadline was in play).
	Predicted time.Duration
	// Reason is the human-readable applicability explanation.
	Reason string
}

// Plan is the routing decision for one instance: which method solves it
// and why every registered method was or was not considered. It is the
// payload of Explain and of Result.Plan, and what lplsolve -explain
// prints.
type Plan struct {
	// Chosen names the method the planner routed to (MethodComponents
	// for disconnected inputs that were decomposed, MethodTrivial for
	// the n ≤ 1 / pmax = 0 fast path).
	Chosen MethodName
	// Forced reports that Options.Method pinned the choice.
	Forced bool
	// AlgorithmPinned reports that Options.Algorithm was set, which
	// biases the planner toward the reduction (the only method that runs
	// TSP engines) whenever it is applicable.
	AlgorithmPinned bool
	// Instance shape, echoed for explain output.
	N, M       int
	Connected  bool
	Components int
	Diameter   int
	// Candidates holds one verdict per registered method, in registry
	// order. Empty for decomposed and trivial plans.
	Candidates []Candidate
	// Budget is the remaining deadline budget the planner routed
	// against (0 when the solve had no deadline or no cost model).
	Budget time.Duration
	// DeadlineRerouted reports that the learned cost model overrode the
	// static (tier, cost) choice because the statically preferred route
	// was predicted to miss the remaining budget. Rerouted results are
	// never inserted into the solve cache: the cache key excludes
	// deadlines, and a relaxed request must not inherit a hurried
	// route's weaker result.
	DeadlineRerouted bool
	// Sub holds the per-component plans of a decomposed solve, in
	// component order.
	Sub []*Plan
}

// Candidate returns the verdict for the named method, or nil.
func (pl *Plan) Candidate(name MethodName) *Candidate {
	for i := range pl.Candidates {
		if pl.Candidates[i].Method == name {
			return &pl.Candidates[i]
		}
	}
	return nil
}

// algorithmPinned reports whether the caller pinned a TSP engine, which
// makes the planner prefer the reduction over cheaper routes: an explicit
// engine choice is a statement about how to solve, and only the reduction
// runs engines.
func algorithmPinned(opts *Options) bool {
	return opts != nil && opts.Algorithm != ""
}

func candidateFrom(name MethodName, a Applicability) Candidate {
	return Candidate{
		Method:     name,
		Applicable: a.OK,
		Exact:      a.Exact,
		Approx:     a.Approx,
		Cost:       a.Cost,
		Reason:     a.Reason,
	}
}

// planSingle ranks every registered method on the probed instance and
// picks one: the forced Options.Method if set, else the reduction when an
// engine is pinned and it applies, else the cheapest applicable method in
// (quality tier, estimated cost, registration order) order. The greedy
// fallback is always applicable, so planning never comes up empty.
//
// budget, when positive alongside a configured Options.CostModel, makes
// the choice deadline-aware: the learned predictor scores every
// applicable candidate, the static choice is kept only if it is
// predicted to fit the budget, and otherwise the best-quality fitting
// route wins (or, when nothing fits, the fastest predicted one as best
// effort). Methods the model cannot predict yet are assumed to fit, so
// a cold model reproduces the static choice exactly.
func planSingle(pr *Probe, p labeling.Vector, opts *Options, budget time.Duration) (*Plan, Method, error) {
	pl := &Plan{
		AlgorithmPinned: algorithmPinned(opts),
		N:               pr.N,
		M:               pr.M,
		Connected:       pr.Connected,
		Components:      1,
		Diameter:        pr.Diameter,
	}
	if !pr.Connected {
		// Reached only for forced-method solves (the auto path decomposes
		// disconnected inputs before planning); count honestly so Solve's
		// Plan matches Explain's.
		pl.Components = len(pr.G.ConnectedComponents())
	}

	// A forced method needs exactly one Check — not a full candidate scan
	// (the fpt/pmax checks probe Gᵏ and its neighborhood diversity, which
	// would be pure waste when the caller already decided the route).
	if opts != nil && opts.Method != "" {
		m, err := LookupMethod(opts.Method)
		if err != nil {
			return nil, nil, err
		}
		a := m.Check(pr, p, opts)
		pl.Candidates = append(pl.Candidates, candidateFrom(opts.Method, a))
		if !a.OK {
			if a.Err != nil {
				return nil, nil, a.Err
			}
			return nil, nil, fmt.Errorf("%w: %q: %s", ErrMethodNotApplicable, opts.Method, a.Reason)
		}
		pl.Chosen = opts.Method
		pl.Forced = true
		return pl, m, nil
	}

	type applicable struct {
		m   Method
		a   Applicability
		ci  int // index into pl.Candidates
		fit bool
	}
	var apps []applicable
	for _, name := range Methods() {
		m, err := LookupMethod(name)
		if err != nil {
			return nil, nil, err
		}
		a := m.Check(pr, p, opts)
		pl.Candidates = append(pl.Candidates, candidateFrom(name, a))
		if a.OK {
			apps = append(apps, applicable{m: m, a: a, ci: len(pl.Candidates) - 1, fit: true})
		}
	}

	if pl.AlgorithmPinned {
		if c := pl.Candidate(MethodReduction); c != nil && c.Applicable {
			m, _ := LookupMethod(MethodReduction)
			pl.Chosen = MethodReduction
			return pl, m, nil
		}
	}
	if len(apps) == 0 {
		// Unreachable while the greedy fallback is registered; keep the
		// planner total even if a build strips methods.
		return nil, nil, fmt.Errorf("core: no applicable method for this instance")
	}

	// bestOf picks by (quality tier, static cost, registration order)
	// among the applicable candidates the filter accepts.
	bestOf := func(accept func(applicable) bool) int {
		best := -1
		for i, ac := range apps {
			if !accept(ac) {
				continue
			}
			if best < 0 ||
				ac.a.Tier() < apps[best].a.Tier() ||
				(ac.a.Tier() == apps[best].a.Tier() && ac.a.Cost < apps[best].a.Cost) {
				best = i
			}
		}
		return best
	}
	chosen := bestOf(func(applicable) bool { return true })

	// Deadline-aware refinement: score the candidates with the learned
	// cost model and keep the best-quality route predicted to fit the
	// remaining budget. Unpredicted candidates are assumed to fit, so a
	// cold or absent model leaves the static choice untouched.
	if budget > 0 && opts != nil && opts.CostModel != nil {
		pl.Budget = budget
		_, pmax := p.MinMax()
		minPred, havePred := -1, false
		for i := range apps {
			pred, ok := opts.CostModel.Predict(apps[i].m.Name(), pr.N, pr.M, pr.Diameter, pmax)
			if !ok {
				continue
			}
			pl.Candidates[apps[i].ci].Predicted = pred
			apps[i].fit = pred <= budget
			if !havePred || pred < pl.Candidates[apps[minPred].ci].Predicted {
				minPred, havePred = i, true
			}
		}
		static := chosen
		fitBest := bestOf(func(ac applicable) bool { return ac.fit })
		switch {
		case fitBest >= 0:
			chosen = fitBest
		case havePred:
			// Nothing is predicted to finish in time: run the fastest
			// predicted route as best effort rather than giving up.
			chosen = minPred
		}
		pl.DeadlineRerouted = chosen != static
	}

	pl.Chosen = apps[chosen].m.Name()
	return pl, apps[chosen].m, nil
}

// Explain plans g without solving it: the returned Plan carries every
// method's applicability verdict (and per-component sub-plans for
// disconnected inputs). It is Solve's routing step exposed for
// introspection — lplsolve -explain and tests consume it.
func Explain(ctx context.Context, g *graph.Graph, p labeling.Vector, opts *Options) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	if trivialInstance(g, p, opts) {
		return trivialPlan(g), nil
	}
	comps := g.ConnectedComponents()
	if opts.Method == "" && len(comps) > 1 {
		pl := &Plan{Chosen: MethodComponents, N: g.N(), M: g.M(), Components: len(comps)}
		for _, comp := range comps {
			sub, err := Explain(ctx, g.InducedSubgraph(comp), p, opts)
			if err != nil {
				return nil, err
			}
			pl.Sub = append(pl.Sub, sub)
		}
		return pl, nil
	}
	pr, err := newProbe(ctx, g)
	if err != nil {
		return nil, err
	}
	pl, _, err := planSingle(pr, p, opts, remainingBudget(ctx))
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// remainingBudget converts a context deadline into the planner's budget
// (0 when none is set — SolveContext installs Options.Deadline as a
// context timeout, so one source covers both caller and option
// deadlines).
func remainingBudget(ctx context.Context) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		if budget := time.Until(dl); budget > 0 {
			return budget
		}
	}
	return 0
}
