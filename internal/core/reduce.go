// Package core implements the paper's algorithm suite behind a planned
// solver pipeline. A solve flows plan → method → engine: the instance is
// probed once (p-vector shape, and connectivity and diameter: from two BFS
// runs on a tree, which gets a distance matrix only when a route reads
// one, and from one APSP otherwise), the method planner routes it to the
// cheapest applicable algorithm in the method registry — the Theorem 2
// TSP reduction, the Theorem 4 FPT coloring for uniform p, the exact
// L(2,1) tree algorithm, the Corollary 3 pmax-approximation, or the
// first-fit fallback — and disconnected inputs are decomposed into
// components solved independently (λ = max over components). The
// reduction answers first from a certificate when it can: a greedy-edge
// path that meets Reduction.LowerBound, or, when p takes two values at
// the graph's distances, an exact path cover of the lighter weight's
// graph (Corollary 2's PARTITION INTO PATHS, for any k; provenance
// AlgoPathCover). Otherwise it dispatches to an engine of internal/tsp's
// fixed table, or races several in the portfolio. Every input therefore gets
// a labeling; the typed precondition errors below are returned only by
// the direct reduction entry points (Reduce, Portfolio) and by solves
// that pin Options.Method.
//
// The original contribution remains the O(nm) reduction from
// L(p)-LABELING on graphs of diameter at most k = dim(p) to METRIC PATH
// TSP (Theorem 2) and the recovery of an optimal labeling from a
// Hamiltonian path via prefix sums (Claim 1).
//
// # Memoization cache
//
// Verified solve results are memoized in a SolveCache — Options.Cache,
// or the library's default instance — an LRU keyed by a canonical
// instance fingerprint (128-bit structural graph hash + n + m + p +
// result-affecting options). Entries hold only the Result (labeling,
// tour, provenance — O(n) ints), never the distance matrix, and are
// stored and served as deep copies, so cache hits share no mutable state
// with any caller and steady-state batch traffic with duplicate instances
// skips the reduction entirely. The cache also holds the per-server
// solver state: its flights' watchdog and its panic counts. See
// NewSolveCache, SolveCacheStats, ResetSolveCache, and Options.NoCache.
//
// # Compact instances and the concurrency memory model
//
// The reduced weights take at most k distinct values (w(u,v) =
// p[dist(u,v)-1]), so ReduceContext hands engines a compact weight-class
// tsp.Instance: a view over the uint16 distance matrix the APSP phase
// already computed plus a k-entry distance→weight table, instead of a
// dense n²·int64 copy (5× less instance memory, zero matrix-building
// work). The distance matrix is shared read-only between the Instance,
// Reduction.Dist, and labeling verification; it is written only during
// ReduceContext's APSP phase, which completes (with all worker goroutines
// joined) before the Reduction escapes. Portfolio racers and SolveBatch
// workers may therefore solve over one Reduction concurrently without
// synchronization, and the tsp engines' pooled scratch keeps those
// steady-state solves allocation-free beyond each result.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/tsp"
)

// Reduction-applicability errors. Callers can test with errors.Is.
var (
	// ErrDisconnected is returned for disconnected inputs (distance, and
	// hence the reduction weight, is undefined across components).
	ErrDisconnected = errors.New("core: graph is disconnected")
	// ErrDiameterExceedsK is returned when diam(G) > len(p), so some edge
	// weight p_d would be undefined (Theorem 2's hypothesis fails).
	ErrDiameterExceedsK = errors.New("core: graph diameter exceeds dim(p)")
	// ErrConditionViolated is returned when pmax > 2·pmin, in which case
	// the reduced weights need not be metric and Claim 1's argument
	// breaks.
	ErrConditionViolated = errors.New("core: pmax > 2*pmin violates the reduction condition")
	// ErrMethodNotApplicable is returned when Options.Method pins a
	// method whose hypotheses fail on the instance and the method has no
	// more specific typed error. The three reduction errors above also
	// mean "not applicable"; test for them individually when the cause
	// matters.
	ErrMethodNotApplicable = errors.New("core: pinned method not applicable")
)

// Reduction holds the reduced METRIC PATH TSP instance H together with the
// data needed to map its tours back to labelings of G. Instance is a
// compact weight-class view sharing Dist's storage read-only; a Reduction
// is safe to share across concurrently racing engines once built.
type Reduction struct {
	G        *graph.Graph
	P        labeling.Vector
	Instance *tsp.Instance
	Dist     *graph.DistMatrix
	Diameter int

	lbOnce sync.Once
	lb     int64
	// On a two-weight instance, LowerBound also keeps H_a, the graph of
	// the lighter weight's pairs, and its path-count bound for certify.
	light    *graph.Graph
	minPaths int
}

// Reduce builds the weighted complete graph H of Theorem 2:
// w(u,v) = p_d where d = dist_G(u,v). It verifies the theorem's
// hypotheses — connectivity, diam(G) ≤ len(p), and pmax ≤ 2·pmin — and
// returns a typed error when one fails. The cost is one APSP: ⌈n/64⌉
// bit-parallel sweeps of O(D·(n+m)) word operations each on a graph of
// diameter D ≤ len(p), or n scalar BFS runs, O(nm) in all, when the first
// sweep shows the sources share too little (the sharing rule of
// graph.AllPairsDistancesContext). The sweeps also record the diameter and
// connectivity the hypotheses need. H is represented compactly as a
// weight-class view over the distance matrix (see the package comment), so
// no weight matrix is materialized.
func Reduce(g *graph.Graph, p labeling.Vector) (*Reduction, error) {
	return ReduceContext(context.Background(), g, p)
}

// ReduceContext is Reduce with cooperative cancellation: the APSP (the
// reduction's dominant phase) checks ctx at every 64-source batch it
// claims, and at every source on its scalar path, and the remaining phases
// check it at their boundaries. The graph is normalized before the APSP
// starts, so a Reduction may be shared read-only by concurrently racing
// engines afterwards.
func ReduceContext(ctx context.Context, g *graph.Graph, p labeling.Vector) (*Reduction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.SatisfiesReductionCondition() {
		pmin, pmax := p.MinMax()
		return nil, fmt.Errorf("%w (pmin=%d, pmax=%d)", ErrConditionViolated, pmin, pmax)
	}
	dm, err := g.AllPairsDistancesContext(ctx)
	if err != nil {
		return nil, err
	}
	diam, disconnected := dm.Max()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return reduceFrom(g, p, dm, diam, !disconnected)
}

// reduceFrom finishes the reduction over an already-computed distance
// matrix: the diameter and connectivity checks plus the compact instance
// build. It is the step the method planner reuses, since its probe has
// already paid for the APSP.
func reduceFrom(g *graph.Graph, p labeling.Vector, dm *graph.DistMatrix, diam int, connected bool) (*Reduction, error) {
	if !connected {
		return nil, ErrDisconnected
	}
	k := p.K()
	if diam > k {
		return nil, fmt.Errorf("%w (diameter %d > k=%d)", ErrDiameterExceedsK, diam, k)
	}
	// Build the compact weight-class instance directly over the distance
	// matrix: Weight(u,v) = classWeights[dist(u,v)-1]. No n²·int64 copy,
	// and no scan: a connected graph's BFS matrix has a zero diagonal and
	// every distance 1…diam, so the class tables cost O(k).
	classWeights := make([]int64, k)
	for i, pi := range p {
		classWeights[i] = int64(pi)
	}
	ins := tsp.NewClassInstance(g.N(), dm.Data(), diam, classWeights)
	return &Reduction{G: g, P: p, Instance: ins, Dist: dm, Diameter: diam}, nil
}

// reduceFromProbe builds the reduction from the planner's probe,
// re-validating Theorem 2's hypotheses in the same order as Reduce (so
// forced-method callers observe the same typed errors). A probe of a tree
// (a star is one of diameter 2) builds its matrix here.
func reduceFromProbe(pr *Probe, p labeling.Vector) (*Reduction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.SatisfiesReductionCondition() {
		pmin, pmax := p.MinMax()
		return nil, fmt.Errorf("%w (pmin=%d, pmax=%d)", ErrConditionViolated, pmin, pmax)
	}
	dm, err := pr.Dist()
	if err != nil {
		return nil, err
	}
	return reduceFrom(pr.G, p, dm, pr.Diameter, pr.Connected)
}

// LabelingFromTour converts a Hamiltonian path of H into the minimum-span
// L(p)-labeling for that vertex ordering via Claim 1's prefix sums:
// l(tour[0]) = 0 and l(tour[i]) = Σ_{t<i} w(tour[t], tour[t+1]). The span
// equals the path's weight.
func (r *Reduction) LabelingFromTour(t tsp.Tour) (labeling.Labeling, int, error) {
	if err := r.Instance.ValidateTour(t); err != nil {
		return nil, 0, err
	}
	n := len(t)
	l := make(labeling.Labeling, n)
	var acc int64
	for i := 1; i < n; i++ {
		acc += r.Instance.Weight(t[i-1], t[i])
		l[t[i]] = int(acc)
	}
	return l, int(acc), nil
}

// TourFromLabeling converts a labeling into the vertex ordering sorted by
// label (ties broken by vertex id), i.e. the permutation π for which l is
// an L(p)-labeling for π. Used by the roundtrip property tests.
func (r *Reduction) TourFromLabeling(l labeling.Labeling) (tsp.Tour, error) {
	n := r.G.N()
	if len(l) != n {
		return nil, fmt.Errorf("core: labeling has %d entries for %d vertices", len(l), n)
	}
	t := make(tsp.Tour, n)
	for i := range t {
		t[i] = i
	}
	// Stable insertion by (label, id); n is small enough in all callers,
	// and sort.Slice would allocate a closure anyway.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && (l[t[j]] < l[t[j-1]] || (l[t[j]] == l[t[j-1]] && t[j] < t[j-1])); j-- {
			t[j], t[j-1] = t[j-1], t[j]
		}
	}
	return t, nil
}

// LowerBound returns a lower bound on the weight of every Hamiltonian
// path of H, so by Theorem 2 LowerBound() ≤ λ_p(G), and a path whose
// weight meets it is optimal. When p takes exactly two values a < b at
// the graph's distances, it is the path-cover bound (n−1)·a +
// (b−a)·(Σ_C max(1, |C| − ν_C) − 1), C ranging over the components of
// H_a and ν_C the maximum matching of C's bipartite double cover (see
// pathcover.go): one O(n²) pass builds H_a and one Hopcroft–Karp run
// matches it. Otherwise it is the weight of a minimum spanning tree of H,
// which every Hamiltonian path is, from Kruskal's algorithm run inside
// the greedy-edge sweep (tsp.GreedyEdgePathMST). The bound is computed
// once per reduction: certify supplies the sweep it runs anyway, and a
// first call from anywhere else runs what it needs. Later and concurrent
// calls share the value.
func (r *Reduction) LowerBound() int64 { return r.lowerBound(-1) }

// lowerBound is LowerBound given the spanning-tree weight mst of a
// greedy-edge sweep the caller already ran, or -1 when it ran none.
func (r *Reduction) lowerBound(mst int64) int64 {
	r.lbOnce.Do(func() {
		if a, b, ok := r.twoWeights(); ok {
			r.lb = r.coverBound(a, b)
			return
		}
		if mst < 0 {
			_, mst = tsp.GreedyEdgePathMST(r.Instance)
		}
		r.lb = mst
	})
	return r.lb
}

// PathWeight returns the weight of tour t in the reduced instance H —
// by Claim 1, exactly the span of LabelingFromTour(t).
func (r *Reduction) PathWeight(t tsp.Tour) int64 { return r.Instance.PathCost(t) }
