package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/mst"
	"lpltsp/internal/rng"
	"lpltsp/internal/tsp"
)

// explain is the test shorthand for planning without solving.
func explain(t *testing.T, g *graph.Graph, p labeling.Vector, opts *Options) *Plan {
	t.Helper()
	pl, err := Explain(context.Background(), g, p, opts)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	return pl
}

// TestPlannerCrossCheck is the routing soundness suite: on random small
// instances across the diameter-2 / uniform-p / general regimes, every
// method the planner deems applicable is forced and compared against the
// reduction-free brute force — exact methods must match λ exactly,
// bounded methods must respect their factor, and everything must verify.
func TestPlannerCrossCheck(t *testing.T) {
	type regime struct {
		name string
		gen  func(r *rng.RNG) *graph.Graph
		p    labeling.Vector
	}
	regimes := []regime{
		{"diameter2-L21", func(r *rng.RNG) *graph.Graph { return graph.RandomDiameter2(r, 5+r.Intn(5), 0.4) }, labeling.L21()},
		{"diameter2-L12", func(r *rng.RNG) *graph.Graph { return graph.RandomDiameter2(r, 5+r.Intn(5), 0.3) }, labeling.Vector{1, 2}},
		{"uniform-ones", func(r *rng.RNG) *graph.Graph { return graph.RandomSmallDiameter(r, 5+r.Intn(5), 2, 0.4) }, labeling.Ones(2)},
		{"uniform-threes", func(r *rng.RNG) *graph.Graph { return graph.RandomSmallDiameter(r, 5+r.Intn(4), 2, 0.5) }, labeling.Vector{3, 3}},
		{"smalldiam-k3", func(r *rng.RNG) *graph.Graph { return graph.RandomSmallDiameter(r, 5+r.Intn(5), 3, 0.3) }, labeling.Vector{2, 2, 1}},
		{"condition-violated", func(r *rng.RNG) *graph.Graph { return graph.RandomDiameter2(r, 5+r.Intn(4), 0.5) }, labeling.Vector{5, 1}},
		{"tree-L21", func(r *rng.RNG) *graph.Graph { return graph.RandomTree(r, 5+r.Intn(5)) }, labeling.L21()},
	}
	r := rng.New(2024)
	for _, re := range regimes {
		for trial := 0; trial < 6; trial++ {
			g := re.gen(r)
			_, brute, err := labeling.BruteForceExact(g, re.p)
			if err != nil {
				t.Fatalf("%s: brute force: %v", re.name, err)
			}
			pl := explain(t, g, re.p, nil)
			if pl.Chosen == "" {
				t.Fatalf("%s: planner chose nothing", re.name)
			}
			for _, c := range pl.Candidates {
				if !c.Applicable {
					continue
				}
				res, err := Solve(g, re.p, &Options{Method: c.Method, Verify: true, NoCache: true})
				if err != nil {
					t.Fatalf("%s: forced %s: %v", re.name, c.Method, err)
				}
				if err := labeling.Verify(g, re.p, res.Labeling); err != nil {
					t.Fatalf("%s: forced %s: invalid labeling: %v", re.name, c.Method, err)
				}
				if res.Span < brute {
					t.Fatalf("%s: forced %s: span %d below λ=%d", re.name, c.Method, res.Span, brute)
				}
				if c.Exact && res.Span != brute {
					t.Fatalf("%s: exact method %s: span %d != λ=%d", re.name, c.Method, res.Span, brute)
				}
				if !c.Exact && c.Approx > 0 && float64(res.Span) > c.Approx*float64(brute)+1e-9 {
					t.Fatalf("%s: %s factor broken: span %d > %.1f·λ=%d", re.name, c.Method, res.Span, c.Approx, brute)
				}
			}
			// The automatic route agrees with its own plan's promise.
			res, err := Solve(g, re.p, &Options{Verify: true, NoCache: true})
			if err != nil {
				t.Fatalf("%s: auto: %v", re.name, err)
			}
			if res.Exact && res.Span != brute {
				t.Fatalf("%s: auto route claims exact span %d, λ=%d (method %s)", re.name, res.Span, brute, res.Method)
			}
		}
	}
}

// cliquePath builds a path of c fully-joined cliques of the given size:
// diameter c−1 with neighborhood diversity c, the Theorem 4 sweet spot
// (large diameter, tiny nd).
func cliquePath(c, size int) *graph.Graph {
	g := graph.New(c * size)
	for i := 0; i < c; i++ {
		for u := i * size; u < (i+1)*size; u++ {
			for v := u + 1; v < (i+1)*size; v++ {
				g.AddEdge(u, v)
			}
			if i+1 < c {
				for v := (i + 1) * size; v < (i+2)*size; v++ {
					g.AddEdge(u, v)
				}
			}
		}
	}
	g.Normalize()
	return g
}

// TestPlannerRouteSelection spot-checks which method the planner picks in
// each regime.
func TestPlannerRouteSelection(t *testing.T) {
	r := rng.New(31)
	cases := []struct {
		name string
		g    *graph.Graph
		p    labeling.Vector
		want MethodName
	}{
		{"diam2 small → reduction", graph.RandomDiameter2(r, 12, 0.3), labeling.L21(), MethodReduction},
		{"tree L21 → tree", graph.RandomTree(r, 200), labeling.L21(), MethodTree},
		{"uniform p low nd diam>k → fpt", cliquePath(4, 3), labeling.Ones(2), MethodFPTColoring},
		{"k3 small → reduction", graph.RandomSmallDiameter(r, 12, 3, 0.3), labeling.Vector{2, 2, 1}, MethodReduction},
		{"pmax>2pmin → pmax-approx", graph.CompleteMultipartite(3, 3, 3), labeling.Vector{5, 1}, MethodPmaxApprox},
	}
	for _, tc := range cases {
		pl := explain(t, tc.g, tc.p, nil)
		if pl.Chosen != tc.want {
			t.Errorf("%s: chose %s, want %s", tc.name, pl.Chosen, tc.want)
		}
		res, err := Solve(tc.g, tc.p, &Options{Verify: true, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Method != tc.want {
			t.Errorf("%s: solved via %s, want %s", tc.name, res.Method, tc.want)
		}
	}
}

// TestPlannerTreeSupersedesPmax: on a tree with p = (2,1) the exact tree
// method applies, so pmax-approx is superseded before its nd probe and
// the planner never builds G² or its modular decomposition. A pinned
// pmax-approx still bypasses the gate.
func TestPlannerTreeSupersedesPmax(t *testing.T) {
	g := graph.RandomTree(rng.New(47), 200)
	pr, err := newProbe(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := planSingle(pr, labeling.L21(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Chosen != MethodTree {
		t.Fatalf("chose %s, want %s", pl.Chosen, MethodTree)
	}
	c := pl.Candidate(MethodPmaxApprox)
	if c == nil || c.Applicable || !strings.Contains(c.Reason, "superseded") {
		t.Fatalf("pmax-approx candidate %+v, want not applicable and superseded", c)
	}
	if pr.pow != nil || pr.ndPow != nil {
		t.Fatalf("planning a tree built G^k (%d) or probed nd (%d)", len(pr.pow), len(pr.ndPow))
	}
	// The random tree's G² exceeds the nd budget; a star's is one clique.
	res, err := Solve(graph.Star(8), labeling.L21(), &Options{Method: MethodPmaxApprox, Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodPmaxApprox {
		t.Fatalf("forced pmax-approx solved via %s", res.Method)
	}
}

// TestPlannerComponents: disconnected inputs decompose, λ = max over
// components, and provenance aggregates.
func TestPlannerComponents(t *testing.T) {
	r := rng.New(47)
	g := graph.RandomComponents(r, 30, 3, 2, 0.4)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("generator produced %d components, want 3", len(comps))
	}
	res, err := Solve(g, labeling.L21(), &Options{Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodComponents {
		t.Fatalf("method %s, want components", res.Method)
	}
	if err := labeling.Verify(g, labeling.L21(), res.Labeling); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, comp := range comps {
		sub := g.InducedSubgraph(comp)
		lam, err := Lambda(sub, labeling.L21())
		if err != nil {
			t.Fatal(err)
		}
		if lam > want {
			want = lam
		}
	}
	if res.Exact && res.Span != want {
		t.Fatalf("decomposed span %d, max-component λ = %d", res.Span, want)
	}
	if res.Plan == nil || len(res.Plan.Sub) != 3 {
		t.Fatalf("component plan missing: %+v", res.Plan)
	}
	// Isolated vertices: the degenerate decomposition.
	res, err = Solve(graph.New(5), labeling.Vector{4, 2}, &Options{Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Span != 0 || !res.Exact {
		t.Fatalf("5·K1: span=%d exact=%v", res.Span, res.Exact)
	}
}

// TestPlannerForcedMethodErrors: pinning an inapplicable method fails with
// the typed error instead of rerouting.
func TestPlannerForcedMethodErrors(t *testing.T) {
	if _, err := Solve(graph.New(2), labeling.L21(), &Options{Method: MethodReduction}); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	if _, err := Solve(graph.Path(9), labeling.L21(), &Options{Method: MethodReduction}); !errors.Is(err, ErrDiameterExceedsK) {
		t.Fatalf("want ErrDiameterExceedsK, got %v", err)
	}
	if _, err := Solve(graph.Complete(3), labeling.Vector{5, 1}, &Options{Method: MethodReduction}); !errors.Is(err, ErrConditionViolated) {
		t.Fatalf("want ErrConditionViolated, got %v", err)
	}
	if _, err := Solve(graph.Cycle(5), labeling.L21(), &Options{Method: MethodTree}); err == nil {
		t.Fatal("tree method forced on a cycle must fail")
	}
	if _, err := Solve(graph.Complete(3), labeling.L21(), &Options{Method: "bogus"}); err == nil {
		t.Fatal("unknown method must fail")
	}
	// Forced greedy works anywhere, including disconnected inputs.
	res, err := Solve(graph.New(3), labeling.L21(), &Options{Method: MethodGreedy, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodGreedy {
		t.Fatalf("method %s", res.Method)
	}
	// Forcing pmax-approx bypasses the planner's supersession policy:
	// Corollary 3 applies even where the exact reduction would win.
	res, err = Solve(graph.Cycle(4), labeling.L21(), &Options{Method: MethodPmaxApprox, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodPmaxApprox || res.Approx != 2 {
		t.Fatalf("forced pmax-approx: method=%s approx=%v", res.Method, res.Approx)
	}
}

// spiderComplement returns the complement of a spider: a centre with
// three legs of length 2, padded with leaves on the centre to n vertices.
// It has diameter 2, and under p = (2,1) the spider's edges are exactly
// H's weight-1 class: they span, so LowerBound is n-1, but the many
// leaves keep every Hamiltonian path far above it.
func spiderComplement(n int) *graph.Graph {
	t := graph.New(n)
	for leg := 0; leg < 3; leg++ {
		t.AddEdge(0, 1+2*leg)
		t.AddEdge(1+2*leg, 2+2*leg)
	}
	for v := 7; v < n; v++ {
		t.AddEdge(0, v)
	}
	return t.Complement()
}

// TestPortfolioApproxProvenance: the auto route beyond the exact engines'
// reach races the portfolio, and the finished 1.5-approximation's factor
// survives onto the result (what the plan advertised). The instance is
// one the spanning-tree bound cannot certify, so the race really runs.
func TestPortfolioApproxProvenance(t *testing.T) {
	g := spiderComplement(tsp.BnBMaxN + 10)
	p := labeling.L21()
	res, err := Solve(g, p, &Options{Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodReduction || res.Algorithm != AlgoPortfolio {
		t.Fatalf("route: method=%s algorithm=%s", res.Method, res.Algorithm)
	}
	red, err := Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if lb := red.LowerBound(); lb >= int64(res.Span) {
		t.Fatalf("bound %d meets span %d: the instance became certifiable", lb, res.Span)
	}
	if res.Exact {
		t.Fatal("n > BnBMaxN cannot be exact here")
	}
	if res.Approx != 1.5 {
		t.Fatalf("portfolio winner lost the 1.5 factor: approx=%v (winner %s)", res.Approx, res.Winner)
	}
	// A roster without an exact engine must not be planned as exact.
	pl := explain(t, graph.RandomDiameter2(rng.New(61), 12, 0.4), labeling.L21(),
		&Options{Algorithm: AlgoPortfolio, Engines: []tsp.Algorithm{tsp.AlgoTwoOpt, tsp.AlgoNearestNeighbor}})
	c := pl.Candidate(MethodReduction)
	if c == nil || !c.Applicable || c.Exact || c.Approx != 0 {
		t.Fatalf("heuristic-only roster misplanned: %+v", c)
	}
}

// oneClassInstance has diameter 2 under p = (2,2,1), so every pair of H
// weighs 2 and every Hamiltonian path meets the spanning-tree bound.
func oneClassInstance() *graph.Graph {
	return graph.RandomSmallDiameter(rng.New(61), tsp.BnBMaxN+10, 3, 0.15)
}

// TestCertifiedGreedyRoute: unpinned, a greedy path that meets the
// spanning-tree bound is answered exact without a race; a pinned engine
// keeps its own semantics on the same instance.
func TestCertifiedGreedyRoute(t *testing.T) {
	g := oneClassInstance()
	p := labeling.Vector{2, 2, 1}
	red, err := Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, p, &Options{Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodReduction || !res.Exact || res.Approx != 1 || !res.Stats.Optimal {
		t.Fatalf("certified route: method=%s exact=%v approx=%v optimal=%v", res.Method, res.Exact, res.Approx, res.Stats.Optimal)
	}
	if res.Algorithm != tsp.AlgoGreedyEdge || res.Winner != tsp.AlgoGreedyEdge {
		t.Fatalf("certified route: algorithm=%s winner=%s, want %s", res.Algorithm, res.Winner, tsp.AlgoGreedyEdge)
	}
	if int64(res.Span) != red.LowerBound() {
		t.Fatalf("span %d, bound %d", res.Span, red.LowerBound())
	}
	for _, tc := range []struct {
		algo   tsp.Algorithm
		approx float64
	}{
		{tsp.AlgoChained, 0},
		{tsp.AlgoChristofides, 1.5},
	} {
		res, err := Solve(g, p, &Options{Algorithm: tc.algo, Verify: true, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != tc.algo || res.Exact || res.Approx != tc.approx {
			t.Fatalf("pinned %s: algorithm=%s exact=%v approx=%v, want inexact with approx %v",
				tc.algo, res.Algorithm, res.Exact, res.Approx, tc.approx)
		}
	}
}

// TestPortfolioCertificateEndsRace: a racer that meets the spanning-tree
// bound is a proven optimum and cancels the rest, here a chained racer
// that would otherwise run to the 10 s deadline.
func TestPortfolioCertificateEndsRace(t *testing.T) {
	res, err := Solve(oneClassInstance(), labeling.Vector{2, 2, 1}, &Options{
		Algorithm: AlgoPortfolio,
		Engines:   []tsp.Algorithm{tsp.AlgoNearestNeighbor, tsp.AlgoChained},
		Chained:   &tsp.ChainedOptions{Restarts: 1, Kicks: 1 << 30},
		Deadline:  10 * time.Second,
		Verify:    true,
		NoCache:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Truncated || res.Winner != tsp.AlgoNearestNeighbor {
		t.Fatalf("exact=%v truncated=%v winner=%s, want an exact nn win", res.Exact, res.Truncated, res.Winner)
	}
}

// TestLowerBoundConcurrent: the spider's edges are H's weight-1 class, a
// tree with centre 0, legs 1-2, 3-4, 5-6 and leaves 7…19. Its double cover
// is two copies of the spider, whose matchings have 4 edges, so at least
// 20 − 8 = 12 paths cover it and the bound is 19·1 + 1·(12 − 1) = 30.
// Racers may share a Reduction, so first calls from several goroutines
// must agree (run under -race).
func TestLowerBoundConcurrent(t *testing.T) {
	const n = 20
	red, err := Reduce(spiderComplement(n), labeling.L21())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = red.LowerBound()
		}()
	}
	wg.Wait()
	for _, lb := range got {
		if lb != 30 {
			t.Fatalf("bounds %v, want 30 from every goroutine", got)
		}
	}
}

// TestLowerBoundMatchesPrim: on instances with one weight, or with three
// or more, the bound Kruskal takes inside the greedy-edge sweep equals
// Prim's MST weight over H, whether the sweep ran for certify or for a
// first LowerBound call. On two-weight instances it is the path-cover
// formula, with ν from a plain augmenting-path matching, and never below
// Prim. (5,3,2) breaks the metric condition, so its reductions are built
// past Reduce's check; (2,2,1,1) reaches diameters 3 and 4.
func TestLowerBoundMatchesPrim(t *testing.T) {
	r := rng.New(2024)
	ps := []labeling.Vector{{2, 2, 1}, {2, 1}, {1, 1}, {3, 2, 1}, {5, 3, 2}, {3, 2}, {1, 2}, {2, 2, 1, 1}}
	var prim mst.PrimScratch
	twoWeight, other := 0, 0
	for i := 0; i < 1200; i++ {
		p := ps[i%len(ps)]
		n := 2 + r.Intn(119)
		g := graph.RandomSmallDiameter(r, n, 1+r.Intn(p.K()), 0.3*r.Float64())
		dm := g.AllPairsDistances()
		diam, disc := dm.Max()
		red, err := reduceFrom(g, p, dm, diam, !disc)
		if err != nil {
			t.Fatalf("reduction %d (n=%d p=%v): %v", i, n, p, err)
		}
		if i%2 == 0 && p.SatisfiesReductionCondition() {
			if _, err := red.certify(); err != nil {
				t.Fatalf("reduction %d (n=%d p=%v): %v", i, n, p, err)
			}
		}
		got, tree := red.LowerBound(), prim.Total(n, red.Instance.Weight)
		a, b, ok := refWeights(p, diam)
		if !ok {
			other++
			if got != tree {
				t.Fatalf("reduction %d (n=%d p=%v diam %d): bound %d, Prim says %d", i, n, p, diam, got, tree)
			}
			continue
		}
		twoWeight++
		want := int64(n-1)*a + (b-a)*int64(refCoverPaths(dm, p, a)-1)
		if got != want || got < tree {
			t.Fatalf("reduction %d (n=%d p=%v diam %d): bound %d, path-cover formula %d, Prim %d", i, n, p, diam, got, want, tree)
		}
	}
	if twoWeight < 300 || other < 300 {
		t.Fatalf("%d two-weight and %d other instances; want at least 300 of each", twoWeight, other)
	}
}

// TestExactContractsNeverDegrade: Lambda and Approximate promise a
// quality level; when the planner can only reach an instance with a
// weaker guarantee they must error, not silently return a worse span.
func TestExactContractsNeverDegrade(t *testing.T) {
	// C10 with p=(2,1): diameter 5 > k, not a tree, nd(G²) small enough
	// for pmax-approx — so Solve succeeds approximately, but Lambda and
	// Approximate (factor 2 > 1.5) must refuse.
	g := graph.Cycle(10)
	if _, err := Lambda(g, labeling.L21()); err == nil {
		t.Fatal("Lambda returned a non-exact span without error")
	}
	if _, err := Approximate(g, labeling.L21()); err == nil {
		t.Fatal("Approximate exceeded its 1.5 factor without error")
	}
	res, err := Solve(g, labeling.L21(), &Options{Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatalf("C10 route %s cannot be exact", res.Method)
	}
	// Exact non-reduction routes still satisfy both contracts: a tree is
	// out of the reduction's reach but the tree method is exact.
	tree := graph.RandomTree(rng.New(71), 40)
	lam, err := Lambda(tree, labeling.L21())
	if err != nil {
		t.Fatal(err)
	}
	apx, err := Approximate(tree, labeling.L21())
	if err != nil {
		t.Fatal(err)
	}
	if apx.Span != lam {
		t.Fatalf("exact route through Approximate: %d != λ=%d", apx.Span, lam)
	}
}

// TestPortfolioKeepsTypedErrorsDespiteCache: a planner solve with a
// pinned portfolio engine must not poison Portfolio's cache key — the
// direct entry point keeps ErrDisconnected.
func TestPortfolioKeepsTypedErrorsDespiteCache(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()
	g := graph.New(4)
	res, err := Solve(g, labeling.L21(), &Options{Algorithm: AlgoPortfolio, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodComponents {
		t.Fatalf("planner route: %s", res.Method)
	}
	if _, err := Portfolio(context.Background(), g, labeling.L21()); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Portfolio served a planner result from the cache: %v", err)
	}
}

// TestTrivialPlanProvenance: the fast path reports connectivity honestly.
func TestTrivialPlanProvenance(t *testing.T) {
	pl := explain(t, graph.Complete(3), labeling.Vector{0, 0}, nil)
	if pl.Chosen != MethodTrivial || !pl.Connected || pl.Components != 1 {
		t.Fatalf("K3 pmax=0 plan: %+v", pl)
	}
	pl = explain(t, graph.New(4), labeling.Vector{0}, nil)
	if pl.Chosen != MethodTrivial || pl.Connected || pl.Components != 4 {
		t.Fatalf("4·K1 pmax=0 plan: %+v", pl)
	}
}

// TestPlannerAlgorithmPinning: an explicit engine keeps the reduction and
// its engine semantics whenever the reduction applies.
func TestPlannerAlgorithmPinning(t *testing.T) {
	r := rng.New(53)
	g := graph.RandomDiameter2(r, 12, 0.4)
	res, err := Solve(g, labeling.L21(), &Options{Algorithm: tsp.AlgoChristofides, Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodReduction || res.Algorithm != tsp.AlgoChristofides {
		t.Fatalf("pinned engine routed to %s/%s", res.Method, res.Algorithm)
	}
	if res.Approx != 1.5 {
		t.Fatalf("christofides approx factor = %v", res.Approx)
	}
	// When the reduction cannot apply, the pinned engine is moot and the
	// planner still routes (here: a tree, so the tree method).
	res, err = Solve(graph.RandomTree(r, 50), labeling.L21(), &Options{Algorithm: tsp.AlgoExact, Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodTree || !res.Exact {
		t.Fatalf("fallback route: method=%s exact=%v", res.Method, res.Exact)
	}
}
