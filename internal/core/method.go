package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"lpltsp/internal/coloring"
	"lpltsp/internal/labeling"
	"lpltsp/internal/pathpart"
	"lpltsp/internal/tsp"
)

// MethodName identifies a solving method in the method registry — the
// algorithm-family layer above the TSP engine registry. Where an engine
// answers "how do we solve path TSP", a method answers "which of the
// paper's algorithms solves this labeling instance at all".
type MethodName string

const (
	// MethodReduction is Theorem 2: reduce to METRIC PATH TSP and run a
	// TSP engine (or the portfolio). Needs a connected graph with
	// diam(G) ≤ dim(p) and pmax ≤ 2·pmin.
	MethodReduction MethodName = "reduction"
	// MethodTree is the Chang–Kuo-style exact L(2,1) tree algorithm — the
	// class-specific polynomial route the paper contrasts with the
	// reduction. Needs a tree and p = (2,1).
	MethodTree MethodName = "tree"
	// MethodDiameter2 is Corollary 2: PARTITION INTO PATHS on G or its
	// complement. Needs k = 2, diam(G) ≤ 2, and pmax ≤ 2·pmin; exact up
	// to the subset DP's reach, a cotree/greedy upper bound beyond.
	MethodDiameter2 MethodName = "diameter2"
	// MethodFPTColoring is Theorem 4: for uniform p = (c,…,c), an optimal
	// labeling is c times an optimal coloring of Gᵏ, computed FPT in
	// neighborhood diversity. No diameter condition.
	MethodFPTColoring MethodName = "fpt-coloring"
	// MethodPmaxApprox is Corollary 3: scale an optimal coloring of Gᵏ by
	// pmax — a pmax-approximation for any p on any graph. The planner's
	// fallback when the reduction's hypotheses fail.
	MethodPmaxApprox MethodName = "pmax-approx"
	// MethodGreedy is the first-fit baseline: valid on every graph and
	// every p, no quality guarantee. The planner's last resort, keeping
	// the solve pipeline total over inputs.
	MethodGreedy MethodName = "greedy"
	// MethodComponents is the provenance tag of decomposed solves: the
	// input was disconnected, each component was planned and solved
	// independently, and λ is the max over components.
	MethodComponents MethodName = "components"
	// MethodTrivial tags the fast path for instances with nothing to
	// decide: n ≤ 1 or pmax = 0, where the all-zero labeling is optimal.
	MethodTrivial MethodName = "trivial"
)

// Applicability is a method's self-assessment for one probed instance.
type Applicability struct {
	// OK reports whether the method can run on this instance at all.
	OK bool
	// Exact reports that the method would return a provably optimal span.
	Exact bool
	// Approx is the guaranteed approximation factor when OK and not
	// exact; 0 means no guarantee (heuristic).
	Approx float64
	// Cost is a relative running-cost estimate used to rank applicable
	// methods (same scale across methods; smaller is cheaper).
	Cost float64
	// Reason explains the verdict in one human-readable clause — the
	// planner surfaces it through Explain and lplsolve -explain.
	Reason string
	// Err is the typed error to return when the caller forced this
	// method and it is not applicable (errors.Is-compatible with the
	// reduction's precondition errors). Nil when OK.
	Err error
}

// Tier buckets methods by result quality for planner ranking: 0 exact,
// 1 bounded approximation, 2 unbounded heuristic.
func (a Applicability) Tier() int {
	switch {
	case a.Exact:
		return 0
	case a.Approx > 0:
		return 1
	default:
		return 2
	}
}

// Method is a pluggable labeling algorithm: it inspects a probed instance,
// declares whether and how well it applies, and solves. Implementations
// must be stateless (one value serves all goroutines); per-solve state
// lives in the Probe and the engines underneath.
type Method interface {
	Name() MethodName
	// Check reports applicability on the probed instance. opts carries
	// the caller's engine pinning (Options.Algorithm), which affects the
	// reduction's exactness and cost; it may be nil.
	Check(pr *Probe, p labeling.Vector, opts *Options) Applicability
	// Solve runs the method. Called only after Check returned OK (or
	// when the caller forced the method, in which case implementations
	// re-validate and return Applicability.Err-style typed errors).
	Solve(ctx context.Context, pr *Probe, p labeling.Vector, opts *Options) (*Result, error)
}

var (
	methodMu    sync.RWMutex
	methodReg   = map[MethodName]Method{}
	methodOrder []MethodName
)

// RegisterMethod adds a method to the planner's registry. Like the engine
// registry, names are dispatch surface: empty names, nil methods, and
// duplicates panic.
func RegisterMethod(m Method) {
	if m == nil {
		panic("core: RegisterMethod with nil method")
	}
	name := m.Name()
	if name == "" {
		panic("core: RegisterMethod with empty method name")
	}
	methodMu.Lock()
	defer methodMu.Unlock()
	if _, dup := methodReg[name]; dup {
		panic(fmt.Sprintf("core: RegisterMethod called twice for %q", name))
	}
	methodReg[name] = m
	methodOrder = append(methodOrder, name)
}

// LookupMethod returns the registered method of that name.
func LookupMethod(name MethodName) (Method, error) {
	methodMu.RLock()
	m, ok := methodReg[name]
	methodMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown method %q", name)
	}
	return m, nil
}

// Methods lists the registered method names in registration order (the
// planner's tie-break order: reduction first, greedy last).
func Methods() []MethodName {
	methodMu.RLock()
	defer methodMu.RUnlock()
	return append([]MethodName(nil), methodOrder...)
}

func init() {
	RegisterMethod(reductionMethod{})
	RegisterMethod(treeMethod{})
	RegisterMethod(diameter2Method{})
	RegisterMethod(fptColoringMethod{})
	RegisterMethod(pmaxApproxMethod{})
	RegisterMethod(greedyMethod{})
}

// expCost caps the exponent so cost comparisons stay finite.
func expCost(n int) float64 {
	if n > 64 {
		n = 64
	}
	return math.Exp2(float64(n))
}

// ndProbeMaxN caps the instances on which the planner will build Gᵏ and
// compute its neighborhood diversity during applicability checks: the
// probe is O(n²)–O(nm) work, which must stay small next to the solve it
// is routing.
const ndProbeMaxN = 512

// ---------------------------------------------------------------------------
// reduction

type reductionMethod struct{}

func (reductionMethod) Name() MethodName { return MethodReduction }

// effectiveReductionAlgo resolves the engine the reduction method would
// run: the pinned Options.Algorithm when set, otherwise the exact engine
// within its reach and the portfolio roster beyond it (unless Solve's
// spanning-tree certificate answers first).
func effectiveReductionAlgo(pr *Probe, opts *Options) tsp.Algorithm {
	if opts != nil && opts.Algorithm != "" {
		return opts.Algorithm
	}
	if pr.N <= tsp.BnBMaxN {
		return tsp.AlgoExact
	}
	return AlgoPortfolio
}

func (reductionMethod) Check(pr *Probe, p labeling.Vector, opts *Options) Applicability {
	if !p.SatisfiesReductionCondition() {
		pmin, pmax := p.MinMax()
		return Applicability{
			Reason: fmt.Sprintf("pmax=%d > 2·pmin=%d breaks Theorem 2's metric condition", pmax, 2*pmin),
			Err:    fmt.Errorf("%w (pmin=%d, pmax=%d)", ErrConditionViolated, pmin, pmax),
		}
	}
	if !pr.Connected {
		return Applicability{Reason: "graph is disconnected; reduction weights undefined across components", Err: ErrDisconnected}
	}
	if pr.Diameter > p.K() {
		return Applicability{
			Reason: fmt.Sprintf("diameter %d > k=%d leaves some pair weight undefined", pr.Diameter, p.K()),
			Err:    fmt.Errorf("%w (diameter %d > k=%d)", ErrDiameterExceedsK, pr.Diameter, p.K()),
		}
	}
	n := pr.N
	algo := effectiveReductionAlgo(pr, opts)
	a := Applicability{OK: true}
	switch algo {
	case tsp.AlgoExact, tsp.AlgoHeldKarp, tsp.AlgoBnB:
		a.Exact = true
		a.Cost = expCost(n) * float64(n*n)
		a.Reason = fmt.Sprintf("diam %d ≤ k=%d, pmax ≤ 2·pmin; exact engine %s", pr.Diameter, p.K(), algo)
	case AlgoPortfolio:
		roster := DefaultPortfolioEngines(n)
		if opts != nil && len(opts.Engines) > 0 {
			roster = opts.Engines
		}
		hasExact, hasApprox := false, false
		for _, e := range roster {
			switch e {
			case tsp.AlgoExact, tsp.AlgoHeldKarp, tsp.AlgoBnB:
				hasExact = true
			case tsp.AlgoChristofides:
				hasApprox = true
			}
		}
		switch {
		case hasExact && n <= tsp.BnBMaxN:
			a.Exact = true
			a.Cost = expCost(n) * float64(n*n)
			a.Reason = fmt.Sprintf("diam %d ≤ k=%d; portfolio race includes the exact engine (n ≤ %d)", pr.Diameter, p.K(), tsp.BnBMaxN)
		case hasApprox:
			a.Approx = 1.5
			a.Cost = float64(n) * float64(n) * float64(n)
			a.Reason = fmt.Sprintf("diam %d ≤ k=%d; heuristic portfolio with the 1.5-approximation", pr.Diameter, p.K())
		default:
			a.Cost = float64(n) * float64(n) * float64(n)
			a.Reason = fmt.Sprintf("diam %d ≤ k=%d; heuristic-only portfolio roster", pr.Diameter, p.K())
		}
	case tsp.AlgoChristofides:
		a.Approx = 1.5
		a.Cost = float64(n) * float64(n) * float64(n)
		a.Reason = fmt.Sprintf("diam %d ≤ k=%d; Christofides/Hoogeveen 1.5-approximation", pr.Diameter, p.K())
	default:
		a.Cost = float64(n) * float64(n) * float64(n)
		a.Reason = fmt.Sprintf("diam %d ≤ k=%d; heuristic engine %s", pr.Diameter, p.K(), algo)
	}
	return a
}

func (reductionMethod) Solve(ctx context.Context, pr *Probe, p labeling.Vector, opts *Options) (*Result, error) {
	red, err := reduceFromProbe(pr, p)
	if err != nil {
		return nil, err
	}
	if opts == nil || opts.Algorithm == "" {
		// Certify before racing: when the greedy-edge path already meets
		// the spanning-tree bound it is optimal, and no engine starts. A
		// pinned engine skips this and keeps its own semantics.
		if res, err := red.certifiedGreedy(); res != nil || err != nil {
			return res, err
		}
	}
	algo := effectiveReductionAlgo(pr, opts)
	var chained *tsp.ChainedOptions
	if opts != nil {
		chained = opts.Chained
	}
	if algo == AlgoPortfolio {
		var engines []tsp.Algorithm
		if opts != nil {
			engines = opts.Engines
		}
		res, err := portfolioOverReduction(ctx, cacheFor(opts), red, chained, engines)
		if err != nil {
			return nil, err
		}
		res.Method = MethodReduction
		return res, nil
	}
	t1 := time.Now()
	tour, stats, err := tsp.SolveContext(ctx, red.Instance, algo, &tsp.SolveOptions{Chained: chained})
	if err != nil {
		return nil, fmt.Errorf("core: tsp engine %q: %w", algo, err)
	}
	t2 := time.Now()
	res, err := red.resultFromTour(tour, algo, stats, false)
	if err != nil {
		return nil, err
	}
	res.SolveTime = t2.Sub(t1)
	res.Method = MethodReduction
	switch {
	case res.Exact:
		res.Approx = 1
	case algo == tsp.AlgoChristofides && !res.Truncated:
		res.Approx = 1.5
	}
	return res, nil
}

// certifiedGreedy builds the greedy-edge path of H and returns it as an
// exact result when its weight meets LowerBound, or nil when it does not.
// The one sweep yields both the path and the bound.
func (r *Reduction) certifiedGreedy() (*Result, error) {
	t1 := time.Now()
	tour, mst := tsp.GreedyEdgePathMST(r.Instance)
	r.lbOnce.Do(func() { r.lb = mst })
	cost := r.Instance.PathCost(tour)
	if cost != r.LowerBound() {
		return nil, nil
	}
	res, err := r.resultFromTour(tour, tsp.AlgoGreedyEdge, tsp.Stats{Cost: cost, Optimal: true}, false)
	if err != nil {
		return nil, err
	}
	res.SolveTime = time.Since(t1)
	res.Method = MethodReduction
	res.Approx = 1
	return res, nil
}

// ---------------------------------------------------------------------------
// tree

type treeMethod struct{}

func (treeMethod) Name() MethodName { return MethodTree }

func isL21(p labeling.Vector) bool { return len(p) == 2 && p[0] == 2 && p[1] == 1 }

func isTree(pr *Probe) bool { return pr.Connected && pr.M == pr.N-1 }

func (treeMethod) Check(pr *Probe, p labeling.Vector, _ *Options) Applicability {
	if !isL21(p) {
		return Applicability{Reason: "tree algorithm is specific to p = (2,1)"}
	}
	if !isTree(pr) {
		return Applicability{Reason: fmt.Sprintf("not a tree (n=%d, m=%d, connected=%v)", pr.N, pr.M, pr.Connected)}
	}
	return Applicability{
		OK:     true,
		Exact:  true,
		Cost:   float64(pr.N) * float64(pr.G.MaxDegree()+2),
		Reason: "tree with p = (2,1): Chang–Kuo Δ+1/Δ+2 decision is exact in polynomial time",
	}
}

func (treeMethod) Solve(_ context.Context, pr *Probe, p labeling.Vector, _ *Options) (*Result, error) {
	if !isL21(p) {
		return nil, fmt.Errorf("core: method %s needs p = (2,1), got %v", MethodTree, p)
	}
	lab, span, err := labeling.TreeLambda21(pr.G)
	if err != nil {
		return nil, fmt.Errorf("core: method %s: %w", MethodTree, err)
	}
	return &Result{Labeling: lab, Span: span, Exact: true, Approx: 1, Method: MethodTree}, nil
}

// ---------------------------------------------------------------------------
// diameter2

type diameter2Method struct{}

func (diameter2Method) Name() MethodName { return MethodDiameter2 }

func (diameter2Method) Check(pr *Probe, p labeling.Vector, _ *Options) Applicability {
	if len(p) != 2 {
		return Applicability{Reason: fmt.Sprintf("PARTITION INTO PATHS route needs k=2, got k=%d", len(p))}
	}
	if !p.SatisfiesReductionCondition() {
		pmin, pmax := p.MinMax()
		return Applicability{
			Reason: fmt.Sprintf("pmax=%d > 2·pmin=%d breaks Corollary 2's hypothesis", pmax, 2*pmin),
			Err:    fmt.Errorf("%w (p=%d, q=%d)", ErrConditionViolated, p[0], p[1]),
		}
	}
	if !pr.Connected {
		return Applicability{Reason: "graph is disconnected", Err: ErrDisconnected}
	}
	if pr.Diameter > 2 {
		return Applicability{
			Reason: fmt.Sprintf("diameter %d > 2", pr.Diameter),
			Err:    fmt.Errorf("%w (diameter %d > 2)", ErrDiameterExceedsK, pr.Diameter),
		}
	}
	if pr.N <= pathpart.ExactMaxN {
		return Applicability{
			OK:     true,
			Exact:  true,
			Cost:   expCost(pr.N) * float64(pr.N),
			Reason: fmt.Sprintf("diam ≤ 2, k=2: exact path-partition DP (n ≤ %d)", pathpart.ExactMaxN),
		}
	}
	return Applicability{
		OK:     true,
		Cost:   float64(pr.N) * float64(pr.N),
		Reason: fmt.Sprintf("diam ≤ 2, k=2 but n > %d: cotree/greedy partition gives an upper bound only", pathpart.ExactMaxN),
	}
}

func (diameter2Method) Solve(_ context.Context, pr *Probe, p labeling.Vector, _ *Options) (*Result, error) {
	if len(p) != 2 {
		return nil, fmt.Errorf("core: method %s needs k=2, got %v", MethodDiameter2, p)
	}
	d2, exact, err := solveDiameter2Partition(pr.G, p[0], p[1])
	if err != nil {
		return nil, err
	}
	res := &Result{Labeling: d2.Labeling, Span: d2.Span, Exact: exact, Method: MethodDiameter2}
	if exact {
		res.Approx = 1
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// fpt-coloring

type fptColoringMethod struct{}

func (fptColoringMethod) Name() MethodName { return MethodFPTColoring }

// uniformValue returns (c, true) when p = (c,…,c).
func uniformValue(p labeling.Vector) (int, bool) {
	for _, x := range p[1:] {
		if x != p[0] {
			return 0, false
		}
	}
	return p[0], true
}

func (fptColoringMethod) Check(pr *Probe, p labeling.Vector, _ *Options) Applicability {
	if _, ok := uniformValue(p); !ok {
		return Applicability{Reason: "p is not uniform; Theorem 4 covers L(c,…,c) only"}
	}
	if pr.N > ndProbeMaxN {
		return Applicability{Reason: fmt.Sprintf("n=%d exceeds the nd-probe budget %d", pr.N, ndProbeMaxN)}
	}
	ell := pr.NDOfPower(p.K())
	if ell > coloring.NDMaxClasses {
		return Applicability{Reason: fmt.Sprintf("nd(Gᵏ)=%d exceeds the FPT budget %d", ell, coloring.NDMaxClasses)}
	}
	return Applicability{
		OK:     true,
		Exact:  true,
		Cost:   float64(pr.N)*float64(pr.N) + expCost(ell)*float64(ell+1),
		Reason: fmt.Sprintf("uniform p: optimal coloring of Gᵏ scaled by c is exact (nd(Gᵏ)=%d)", ell),
	}
}

func (fptColoringMethod) Solve(_ context.Context, pr *Probe, p labeling.Vector, _ *Options) (*Result, error) {
	c, ok := uniformValue(p)
	if !ok {
		return nil, fmt.Errorf("core: method %s needs uniform p, got %v", MethodFPTColoring, p)
	}
	col, chi, err := coloring.NDExact(pr.PowerGraph(p.K()))
	if err != nil {
		return nil, fmt.Errorf("core: method %s: %w", MethodFPTColoring, err)
	}
	lab := make(labeling.Labeling, len(col))
	span := 0
	for v, x := range col {
		lab[v] = c * x
	}
	if chi > 0 {
		span = c * (chi - 1)
	}
	return &Result{Labeling: lab, Span: span, Exact: true, Approx: 1, Method: MethodFPTColoring}, nil
}

// ---------------------------------------------------------------------------
// pmax-approx

type pmaxApproxMethod struct{}

func (pmaxApproxMethod) Name() MethodName { return MethodPmaxApprox }

func (pmaxApproxMethod) Check(pr *Probe, p labeling.Vector, opts *Options) Applicability {
	// The first three gates are planner policy (don't pay the nd probe
	// when a strictly better method is known to apply), not
	// applicability: Corollary 3 itself holds on any graph. A caller
	// pinning this method skips them, so -method pmax-approx works
	// wherever the nd budget allows. The tree gate loses no deadline
	// reroute: the exact tree DP costs less than G² and its nd probe.
	forced := opts != nil && opts.Method == MethodPmaxApprox
	if !forced {
		if _, ok := uniformValue(p); ok {
			return Applicability{Reason: "uniform p is solved exactly by fpt-coloring"}
		}
		if pr.Connected && pr.Diameter <= p.K() && p.SatisfiesReductionCondition() {
			return Applicability{Reason: "superseded: the exact reduction applies to this instance"}
		}
		if isL21(p) && isTree(pr) {
			return Applicability{Reason: "superseded: the exact tree method applies to this instance"}
		}
	}
	if pr.N > ndProbeMaxN {
		return Applicability{Reason: fmt.Sprintf("n=%d exceeds the nd-probe budget %d", pr.N, ndProbeMaxN)}
	}
	ell := pr.NDOfPower(p.K())
	if ell > coloring.NDMaxClasses {
		return Applicability{Reason: fmt.Sprintf("nd(Gᵏ)=%d exceeds the FPT budget %d", ell, coloring.NDMaxClasses)}
	}
	pmin, pmax := p.MinMax()
	a := Applicability{
		OK:   true,
		Cost: float64(pr.N)*float64(pr.N) + expCost(ell)*float64(ell+1),
	}
	if pmin >= 1 {
		a.Approx = float64(pmax)
		a.Reason = fmt.Sprintf("Corollary 3 fallback: pmax-scaled coloring of Gᵏ, factor ≤ %d (nd(Gᵏ)=%d)", pmax, ell)
	} else {
		a.Reason = fmt.Sprintf("pmax-scaled coloring of Gᵏ; pmin=0 voids the factor guarantee (nd(Gᵏ)=%d)", ell)
	}
	return a
}

func (pmaxApproxMethod) Solve(_ context.Context, pr *Probe, p labeling.Vector, _ *Options) (*Result, error) {
	_, pmax := p.MinMax()
	col, chi, err := coloring.NDExact(pr.PowerGraph(p.K()))
	if err != nil {
		return nil, fmt.Errorf("core: method %s: %w", MethodPmaxApprox, err)
	}
	lab := make(labeling.Labeling, len(col))
	span := 0
	for v, x := range col {
		lab[v] = pmax * x
	}
	if chi > 0 {
		span = pmax * (chi - 1)
	}
	res := &Result{Labeling: lab, Span: span, Method: MethodPmaxApprox}
	if pmin, _ := p.MinMax(); pmin >= 1 {
		res.Approx = float64(pmax)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// greedy

type greedyMethod struct{}

func (greedyMethod) Name() MethodName { return MethodGreedy }

func (greedyMethod) Check(pr *Probe, p labeling.Vector, _ *Options) Applicability {
	_, pmax := p.MinMax()
	a := Applicability{
		OK:     true,
		Cost:   float64(pr.N) * float64(pr.N),
		Reason: "first-fit baseline: valid on every graph and p, no quality guarantee",
	}
	if pmax == 0 || pr.N <= 1 {
		a.Exact = true
		a.Approx = 1
		a.Reason = "degenerate instance: first-fit is trivially optimal"
	}
	return a
}

func (greedyMethod) Solve(_ context.Context, pr *Probe, p labeling.Vector, _ *Options) (*Result, error) {
	lab, span, err := labeling.GreedyFirstFitMatrix(pr.G, pr.Dist, p, labeling.OrderDegree)
	if err != nil {
		return nil, fmt.Errorf("core: method %s: %w", MethodGreedy, err)
	}
	res := &Result{Labeling: lab, Span: span, Method: MethodGreedy}
	_, pmax := p.MinMax()
	if pmax == 0 || pr.N <= 1 {
		res.Exact = true
		res.Approx = 1
	}
	return res, nil
}
