package core

import (
	"errors"
	"testing"
	"testing/quick"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
	"lpltsp/internal/tsp"
)

// randomVector returns a random p with pmax ≤ 2·pmin (Theorem 2's
// condition) of dimension k.
func randomVector(r *rng.RNG, k int) labeling.Vector {
	pmin := 1 + r.Intn(4)
	p := make(labeling.Vector, k)
	for i := range p {
		p[i] = pmin + r.Intn(pmin+1) // in [pmin, 2pmin]
	}
	p[r.Intn(k)] = pmin // make sure pmin is attained
	return p
}

func TestReducePreconditions(t *testing.T) {
	// Disconnected.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, err := Reduce(g, labeling.L21()); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	// Diameter too large: P5 has diameter 4 > k=2.
	if _, err := Reduce(graph.Path(5), labeling.L21()); !errors.Is(err, ErrDiameterExceedsK) {
		t.Fatalf("want ErrDiameterExceedsK, got %v", err)
	}
	// Condition violated: p = (3,1).
	if _, err := Reduce(graph.Complete(4), labeling.Vector{3, 1}); !errors.Is(err, ErrConditionViolated) {
		t.Fatalf("want ErrConditionViolated, got %v", err)
	}
	// Empty vector.
	if _, err := Reduce(graph.Complete(4), labeling.Vector{}); err == nil {
		t.Fatal("want error for empty p")
	}
}

func TestReducedInstanceIsMetric(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		k := 2 + r.Intn(3)
		g := graph.RandomSmallDiameter(r, 3+r.Intn(12), k, 0.2)
		p := randomVector(r, k)
		red, err := Reduce(g, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !red.Instance.IsMetric() {
			t.Fatalf("trial %d: reduced instance is not metric (p=%v)", trial, p)
		}
		min, max := red.Instance.MinMaxWeight()
		pmin, _ := p.MinMax()
		if min < int64(pmin) || max > int64(2*pmin) {
			t.Fatalf("weights [%d,%d] outside [pmin, 2pmin] = [%d,%d]", min, max, pmin, 2*pmin)
		}
	}
}

// TestFigure1 reconstructs the running example of the paper's Figure 1:
// 5-vertex diameter-3 graph, p = (p1,p2,p3).
func TestFigure1(t *testing.T) {
	g := graph.Figure1Graph()
	p := labeling.Vector{2, 2, 1} // pmax=2 ≤ 2·pmin=2
	red, err := Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// Check a few weights against hand-computed distances:
	// dist(a,b)=1, dist(a,d)=2, dist(a,e)=3, dist(b,e)=3, dist(c,e)=2.
	checks := []struct {
		u, v int
		w    int64
	}{
		{0, 1, 2}, {0, 3, 2}, {0, 4, 1}, {1, 4, 1}, {2, 4, 2},
	}
	for _, c := range checks {
		if got := red.Instance.Weight(c.u, c.v); got != c.w {
			t.Fatalf("w(%d,%d) = %d, want %d", c.u, c.v, got, c.w)
		}
	}
	res, err := Solve(g, p, &Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	_, brute, err := labeling.BruteForceExact(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Span != brute {
		t.Fatalf("figure-1 λ via reduction %d != brute force %d", res.Span, brute)
	}
}

// TestEquivalenceWithBruteForce is the heart of experiment E2: the span of
// the optimal labeling obtained through the reduction equals λ_p(G)
// computed by an engine that knows nothing about the reduction.
func TestEquivalenceWithBruteForce(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 120; trial++ {
		k := 2 + r.Intn(3)
		n := 2 + r.Intn(7)
		g := graph.RandomSmallDiameter(r, n, k, 0.25)
		p := randomVector(r, k)
		res, err := Solve(g, p, &Options{Verify: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, brute, err := labeling.BruteForceExact(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Span != brute {
			t.Fatalf("trial %d (n=%d, k=%d, p=%v): reduction λ=%d, brute λ=%d",
				trial, n, k, p, res.Span, brute)
		}
		if err := labeling.Verify(g, p, res.Labeling); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestClaim1SpanEqualsTourWeight: for ANY tour (not just optimal ones),
// the labeling recovered by prefix sums is valid and its span equals the
// tour's path weight. This is the property form of Claim 1.
func TestClaim1SpanEqualsTourWeight(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		k := 2 + r.Intn(3)
		n := 2 + r.Intn(12)
		g := graph.RandomSmallDiameter(r, n, k, 0.3)
		p := randomVector(r, k)
		red, err := Reduce(g, p)
		if err != nil {
			return false
		}
		tour := tsp.Tour(r.Perm(n))
		lab, span, err := red.LabelingFromTour(tour)
		if err != nil {
			return false
		}
		if int64(span) != red.PathWeight(tour) {
			return false
		}
		return labeling.VerifyWithMatrix(red.Dist, p, lab) == nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRoundTrip: labeling → tour → labeling reproduces a span no larger
// than the original (sorting an optimal labeling and re-completing it
// cannot worsen it; for greedy labelings it may strictly improve).
func TestRoundTrip(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 60; trial++ {
		k := 2 + r.Intn(2)
		n := 2 + r.Intn(10)
		g := graph.RandomSmallDiameter(r, n, k, 0.3)
		p := randomVector(r, k)
		red, err := Reduce(g, p)
		if err != nil {
			t.Fatal(err)
		}
		lab, span, err := labeling.GreedyFirstFit(g, p, labeling.OrderDegree)
		if err != nil {
			t.Fatal(err)
		}
		tour, err := red.TourFromLabeling(lab)
		if err != nil {
			t.Fatal(err)
		}
		lab2, span2, err := red.LabelingFromTour(tour)
		if err != nil {
			t.Fatal(err)
		}
		if span2 > span {
			t.Fatalf("trial %d: roundtrip worsened span %d → %d", trial, span, span2)
		}
		if err := labeling.VerifyWithMatrix(red.Dist, p, lab2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLowerBoundHolds: λ ≥ (n−1)·pmin on reduced instances.
func TestLowerBoundHolds(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 40; trial++ {
		k := 2 + r.Intn(3)
		n := 2 + r.Intn(9)
		g := graph.RandomSmallDiameter(r, n, k, 0.3)
		p := randomVector(r, k)
		span, err := Lambda(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if lb := labeling.PathLowerBound(n, p); span < lb {
			t.Fatalf("λ=%d below lower bound %d", span, lb)
		}
		if lb := labeling.CliqueLowerBound(g, p); span < lb {
			t.Fatalf("λ=%d below clique bound %d", span, lb)
		}
	}
}

// TestApproximationRatio: the Christofides-path engine stays within 1.5
// (Corollary 1), and all engines produce valid labelings.
func TestApproximationRatio(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		k := 2 + r.Intn(3)
		n := 4 + r.Intn(9)
		g := graph.RandomSmallDiameter(r, n, k, 0.3)
		p := randomVector(r, k)
		opt, err := Lambda(g, p)
		if err != nil {
			t.Fatal(err)
		}
		apx, err := Approximate(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if float64(apx.Span) > 1.5*float64(opt)+1e-9 {
			t.Fatalf("trial %d: approx %d > 1.5×%d", trial, apx.Span, opt)
		}
		if apx.Span < opt {
			t.Fatalf("approx beat optimum: %d < %d", apx.Span, opt)
		}
	}
}

// TestAllEnginesValid runs every TSP engine through the reduction and
// checks validity and ≥-optimal spans.
func TestAllEnginesValid(t *testing.T) {
	r := rng.New(6)
	g := graph.RandomSmallDiameter(r, 12, 3, 0.25)
	p := labeling.Vector{2, 2, 1}
	opt, err := Lambda(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range tsp.Algorithms() {
		res, err := Solve(g, p, &Options{Algorithm: algo, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Span < opt {
			t.Fatalf("%s: span %d below optimum %d", algo, res.Span, opt)
		}
		if err := labeling.Verify(g, p, res.Labeling); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

// TestGriggsYehGadget verifies the Theorem 3 construction: λ_{2,1} of the
// gadget equals n+1 exactly when G has a Hamiltonian path.
func TestGriggsYehGadget(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(5)
		g := graph.GNP(r, n, 0.45)
		gadget := graph.GriggsYehGadget(g)
		span, err := Lambda(gadget, labeling.L21())
		if err != nil {
			// The gadget can be complete (diameter 1 ≤ 2 still fine);
			// any Reduce error is a real failure.
			t.Fatalf("trial %d: %v", trial, err)
		}
		hasPath := g.HasHamiltonianPath()
		if hasPath && span != n+1 {
			t.Fatalf("trial %d: G has Ham path but λ=%d (n=%d)", trial, span, n)
		}
		if !hasPath && span <= n+1 {
			t.Fatalf("trial %d: G has no Ham path but λ=%d ≤ n+1=%d", trial, span, n+1)
		}
	}
}

// TestSolveOptionsDefaults: nil options route freely, and pinning an
// engine keeps the reduction's engine provenance.
func TestSolveOptionsDefaults(t *testing.T) {
	g := graph.Complete(5)
	res, err := Solve(g, labeling.L21(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Span != labeling.CompleteLambda21(5) {
		t.Fatalf("K5: span %d exact %v", res.Span, res.Exact)
	}
	// With no pinned engine the planner routes freely; K5 has diameter 1,
	// so every pair of H weighs p₁, the greedy-edge path meets the
	// spanning-tree bound, and no engine runs.
	if res.Method != MethodReduction || res.Algorithm != tsp.AlgoGreedyEdge || res.Approx != 1 {
		t.Fatalf("K5 auto route: method=%s algorithm=%s approx=%v", res.Method, res.Algorithm, res.Approx)
	}
	// Pinning the engine restores the classical reduction provenance.
	res, err = Solve(g, labeling.L21(), &Options{Algorithm: tsp.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != tsp.AlgoExact || res.Method != MethodReduction || !res.Exact {
		t.Fatalf("pinned engine: algorithm=%s method=%s exact=%v", res.Algorithm, res.Method, res.Exact)
	}
}

func TestHeuristicEngine(t *testing.T) {
	r := rng.New(8)
	g := graph.RandomSmallDiameter(r, 14, 2, 0.4)
	res, err := Heuristic(g, labeling.L21(), &tsp.ChainedOptions{Restarts: 2, Kicks: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := labeling.Verify(g, labeling.L21(), res.Labeling); err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("heuristic result must not claim exactness")
	}
}

func TestSingleVertexAndEdge(t *testing.T) {
	g := graph.New(1)
	res, err := Solve(g, labeling.L21(), nil)
	if err != nil || res.Span != 0 {
		t.Fatalf("K1: %v %v", res, err)
	}
	g2 := graph.Complete(2)
	res, err = Solve(g2, labeling.L21(), nil)
	if err != nil || res.Span != 2 {
		t.Fatalf("K2: span=%d err=%v", res.Span, err)
	}
}
