package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/pathpart"
	"lpltsp/internal/rng"
	"lpltsp/internal/tsp"
)

// refWeights is the test's own two-weight test: the distinct values of
// p₁…p_diam, returned as a < b when there are exactly two.
func refWeights(p labeling.Vector, diam int) (a, b int64, ok bool) {
	seen := map[int]bool{}
	for _, x := range p[:diam] {
		seen[x] = true
	}
	if len(seen) != 2 {
		return 0, 0, false
	}
	a, b = -1, -1
	for x := range seen {
		switch w := int64(x); {
		case a < 0:
			a = w
		case w < a:
			a, b = w, a
		default:
			b = w
		}
	}
	return a, b, true
}

// refCoverPaths is the path-count bound computed from scratch: H_a from
// the distance matrix, components by DFS, and ν_C by one plain
// augmenting-path search per left copy of the double cover.
func refCoverPaths(dm *graph.DistMatrix, p labeling.Vector, a int64) int {
	n := dm.N
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if d := dm.Dist(u, v); u != v && d != graph.Unreachable && int64(p[d-1]) == a {
				adj[u] = append(adj[u], v)
			}
		}
	}
	mateR := make([]int, n)
	for i := range mateR {
		mateR[i] = -1
	}
	var augment func(u int, seen []bool) bool
	augment = func(u int, seen []bool) bool {
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				if mateR[v] < 0 || augment(mateR[v], seen) {
					mateR[v] = u
					return true
				}
			}
		}
		return false
	}
	matched := make([]bool, n)
	for u := 0; u < n; u++ {
		matched[u] = augment(u, make([]bool, n))
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	total := 0
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		size, free := 0, 0
		stack := []int{s}
		comp[s] = s
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			if !matched[u] {
				free++
			}
			for _, v := range adj[u] {
				if comp[v] < 0 {
					comp[v] = s
					stack = append(stack, v)
				}
			}
		}
		total += max(1, free)
	}
	return total
}

// diameter3Graph has two adjacent hubs, every other vertex on one of
// them, and extra edges among the others at the given rate; it retries
// until the diameter is exactly 3.
func diameter3Graph(r *rng.RNG, n int, extra float64) *graph.Graph {
	for {
		g := graph.New(n)
		g.AddEdge(0, 1)
		for v := 2; v < n; v++ {
			g.AddEdge(v, r.Intn(2))
		}
		for u := 2; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < extra {
					g.AddEdge(u, v)
				}
			}
		}
		if d, _ := g.Diameter(); d == 3 {
			return g
		}
	}
}

// unbalancedJoin joins a random graph on 1–3 vertices to a random graph on
// the rest. Under p = (2,1), H_a is the complement, the disjoint union of
// the two sides' complements: components of very different sizes.
func unbalancedJoin(r *rng.RNG, n int) *graph.Graph {
	small := 1 + r.Intn(3)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (u < small) != (v < small) || r.Float64() < 0.5 {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// TestTwoWeightBoundAgainstHeldKarp: over seeded two-weight instances
// with n ≤ 12 — diameter 2 under (2,1), (1,2) and (3,2), diameter 3 under
// (2,2,1) and (1,1,2), H_a disconnected (RandomDiameter2's universal
// vertex under (2,1)) and unbalanced (a small side joined to a large one)
// — the bound never exceeds λ from Held–Karp on the reduction, and the
// unpinned solve is exact with span λ. On the reduction route it started
// no engine: the greedy-edge path or a path cover answered.
func TestTwoWeightBoundAgainstHeldKarp(t *testing.T) {
	r := rng.New(21)
	d2 := func(r *rng.RNG, n int) *graph.Graph { return graph.RandomDiameter2(r, n, 0.15+0.5*r.Float64()) }
	d3 := func(r *rng.RNG, n int) *graph.Graph { return diameter3Graph(r, n, 0.3*r.Float64()) }
	families := []struct {
		name string
		gen  func(*rng.RNG, int) *graph.Graph
		p    labeling.Vector
	}{
		{"diameter2/(2,1)", d2, labeling.Vector{2, 1}},
		{"diameter2/(1,2)", d2, labeling.Vector{1, 2}},
		{"diameter2/(3,2)", d2, labeling.Vector{3, 2}},
		{"diameter3/(2,2,1)", d3, labeling.Vector{2, 2, 1}},
		{"diameter3/(1,1,2)", d3, labeling.Vector{1, 1, 2}},
		{"join/(2,1)", unbalancedJoin, labeling.Vector{2, 1}},
		{"join/(1,2)", unbalancedJoin, labeling.Vector{1, 2}},
	}
	const perFamily = 150
	ctx := context.Background()
	tight, byAlgo := 0, map[tsp.Algorithm]int{}
	for _, fam := range families {
		for i := 0; i < perFamily; i++ {
			n := 4 + r.Intn(9)
			var g *graph.Graph
			var red *Reduction
			for {
				g = fam.gen(r, n)
				var err error
				if red, err = Reduce(g, fam.p); err != nil {
					t.Fatalf("%s #%d: %v", fam.name, i, err)
				}
				if _, _, ok := refWeights(fam.p, red.Diameter); ok {
					break
				}
			}
			_, st, err := tsp.SolveContext(ctx, red.Instance, tsp.AlgoHeldKarp, nil)
			if err != nil {
				t.Fatal(err)
			}
			lambda := st.Cost
			if lb := red.LowerBound(); lb > lambda {
				t.Fatalf("%s #%d (n=%d): bound %d above λ = %d", fam.name, i, n, lb, lambda)
			} else if lb == lambda {
				tight++
			}
			res, err := Solve(g, fam.p, &Options{Verify: true, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact || int64(res.Span) != lambda {
				t.Fatalf("%s #%d (n=%d): method %s algorithm %s exact=%v span %d, λ = %d",
					fam.name, i, n, res.Method, res.Algorithm, res.Exact, res.Span, lambda)
			}
			if res.Method == MethodReduction {
				if res.Algorithm != tsp.AlgoGreedyEdge && res.Algorithm != AlgoPathCover {
					t.Fatalf("%s #%d (n=%d): engine %s ran on a two-weight instance", fam.name, i, n, res.Algorithm)
				}
				byAlgo[res.Algorithm]++
			}
		}
	}
	t.Logf("%d instances: bound tight on %d; answered by %v", len(families)*perFamily, tight, byAlgo)
}

// TestTwoWeightPathCoverRoute pins the route of a two-weight instance past
// the subset DP's reach: the greedy-edge path misses the bound, the
// greedy cover of H_a = G meets it with one path, and no engine starts
// (Held–Karp ran here before the path-cover bound existed).
func TestTwoWeightPathCoverRoute(t *testing.T) {
	g := graph.RandomDiameter2(rng.New(2), 24, 0.2)
	res, err := Solve(g, labeling.Vector{1, 2}, &Options{Verify: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodReduction || res.Algorithm != AlgoPathCover || res.Winner != AlgoPathCover ||
		!res.Exact || res.Approx != 1 || res.Span != 23 {
		t.Fatalf("method=%s algorithm=%s winner=%s exact=%v approx=%v span=%d, want an exact pathcover answer of 23",
			res.Method, res.Algorithm, res.Winner, res.Exact, res.Approx, res.Span)
	}
}

// TestTwoWeightCertifiedSkipsDP: a certified n = 22 two-weight solve runs
// neither an engine nor the subset DP, whose table alone is 92 MB here.
func TestTwoWeightCertifiedSkipsDP(t *testing.T) {
	g := graph.RandomDiameter2(rng.New(7), 22, 0.35)
	p := labeling.Vector{2, 1}
	opts := &Options{Verify: true, NoCache: true}
	if _, err := Solve(g, p, opts); err != nil { // warm the scratch pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Solve(g, p, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodReduction || !res.Exact ||
		(res.Algorithm != tsp.AlgoGreedyEdge && res.Algorithm != AlgoPathCover) {
		t.Fatalf("method=%s algorithm=%s exact=%v, want a certified reduction answer", res.Method, res.Algorithm, res.Exact)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("certified solve allocated %d bytes", alloc)
	}
}

// TestCoverPathsExactness: whenever the cover helper calls its cover
// minimum it has the subset DP's path count, and the joined greedy cover
// is a valid cover; past the DP's reach, cographs still get an exact
// cover from the cotree.
func TestCoverPathsExactness(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(14)
		g := graph.GNP(r, n, r.Float64())
		if i%3 == 0 {
			g = graph.RandomCograph(r, n)
		}
		paths, exact, err := coverPaths(g, pathCoverBound(g))
		if err != nil || !exact {
			t.Fatalf("#%d (n=%d): exact=%v err=%v within the DP's reach", i, n, exact, err)
		}
		if err := pathpart.Verify(g, paths); err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
		want, err := pathpart.Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != len(want) {
			t.Fatalf("#%d (n=%d): %d paths, the DP needs %d", i, n, len(paths), len(want))
		}
	}
	for i := 0; i < 20; i++ {
		g := graph.RandomCograph(r, pathpart.ExactMaxN+1+r.Intn(40))
		paths, exact, err := coverPaths(g, pathCoverBound(g))
		if err != nil || !exact {
			t.Fatalf("cograph #%d: exact=%v err=%v", i, exact, err)
		}
		want, err := pathpart.CographCount(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := pathpart.Verify(g, paths); err != nil || len(paths) != want {
			t.Fatalf("cograph #%d: %d paths (cotree count %d), verify: %v", i, len(paths), want, err)
		}
	}
}

// BenchmarkTwoWeightBound times the path-cover bound on large two-weight
// reductions (building H_a from the distance matrix, one Hopcroft–Karp
// run, the components) next to the greedy-edge sweep every unpinned
// reduction solve runs on the same instance.
func BenchmarkTwoWeightBound(b *testing.B) {
	for _, n := range []int{256, 1024, 2048} {
		g := graph.RandomDiameter2(rng.New(7), n, 0.35)
		p := labeling.Vector{2, 1}
		dm := g.AllPairsDistances()
		diam, disc := dm.Max()
		base, err := reduceFrom(g, p, dm, diam, !disc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bound/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				red, _ := reduceFrom(g, p, dm, diam, !disc)
				if red.LowerBound() < 0 || red.light == nil {
					b.Fatal("no path-cover bound")
				}
			}
		})
		b.Run(fmt.Sprintf("greedy-sweep/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tsp.GreedyEdgePathMST(base.Instance)
			}
		})
	}
}
