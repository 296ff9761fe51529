package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
)

// apspProbe probes g as newProbe probes every graph that is no tree: one
// APSP, matrix built up front. The tests below use it on trees as the
// oracle of the two-BFS probe.
func apspProbe(g *graph.Graph) *Probe {
	dm := g.AllPairsDistances()
	diam, disconnected := dm.Max()
	return &Probe{G: g, N: g.N(), M: g.M(), Connected: !disconnected, Diameter: diam, ctx: context.Background(), dist: dm}
}

// relabel returns g with its vertices renamed by a random permutation, so
// the tree probe's first BFS starts anywhere in the tree.
func relabel(r *rng.RNG, g *graph.Graph) *graph.Graph {
	perm := r.Perm(g.N())
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		h.AddEdge(perm[e[0]], perm[e[1]])
	}
	h.Normalize()
	return h
}

// caterpillar is a path of spine vertices with every other vertex a leaf
// on a random spine vertex.
func caterpillar(r *rng.RNG, n int) *graph.Graph {
	spine := max(1, n/3)
	g := graph.New(n)
	for v := 1; v < spine; v++ {
		g.AddEdge(v-1, v)
	}
	for v := spine; v < n; v++ {
		g.AddEdge(v, r.Intn(spine))
	}
	g.Normalize()
	return g
}

// spider is a hub (vertex 0) with legs of random length.
func spider(r *rng.RNG, n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; {
		leg := 1 + r.Intn(6)
		prev := 0
		for i := 0; i < leg && v < n; i++ {
			g.AddEdge(prev, v)
			prev = v
			v++
		}
	}
	g.Normalize()
	return g
}

// seededTrees returns 503 trees: paths on 1, 2 and 3 vertices, then
// random trees, paths, stars, caterpillars and spiders with 4 to 130
// vertices, half of them relabelled.
func seededTrees() []*graph.Graph {
	r := rng.New(2202)
	gs := []*graph.Graph{graph.Path(1), graph.Path(2), graph.Path(3)}
	for i := 0; i < 100; i++ {
		n := 4 + r.Intn(127)
		for _, g := range []*graph.Graph{graph.RandomTree(r, n), graph.Path(n), graph.Star(n), caterpillar(r, n), spider(r, n)} {
			if i%2 == 1 {
				g = relabel(r, g)
			}
			gs = append(gs, g)
		}
	}
	return gs
}

// TestTreeProbeMatchesAPSP: on every seeded tree the two-BFS probe builds
// no matrix and reports the connectivity and diameter of the APSP probe,
// and Explain returns the plan the APSP probe gets, for p vectors that
// reach the tree route, the reduction, fpt-coloring, pmax-approx and the
// greedy fallback.
func TestTreeProbeMatchesAPSP(t *testing.T) {
	vectors := []labeling.Vector{{2, 1}, {2, 2, 1}, {1, 2}, {3, 1}, {1, 1}, {2, 1, 1}}
	for i, g := range seededTrees() {
		if g.M() != g.N()-1 {
			t.Fatalf("#%d: %d edges on %d vertices is no tree", i, g.M(), g.N())
		}
		pr, err := newProbe(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want := apspProbe(g)
		if pr.dist != nil {
			t.Fatalf("#%d (n=%d): the tree probe built a distance matrix", i, g.N())
		}
		if pr.Connected != want.Connected || pr.Diameter != want.Diameter {
			t.Fatalf("#%d (n=%d): probe (connected %v, diameter %d), APSP (%v, %d)",
				i, g.N(), pr.Connected, pr.Diameter, want.Connected, want.Diameter)
		}
		for _, p := range vectors {
			if trivialInstance(g, p, nil) || (g.N() > 40 && !isL21(p) && len(p) != 3) {
				continue // the nd probes of (1,2), (3,1), (1,1) stay on small trees
			}
			got := explain(t, g, p, nil)
			wantPlan, _, err := planSingle(apspProbe(g), p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantPlan) {
				t.Fatalf("#%d (n=%d) p=%v: Explain %+v, APSP plan %+v", i, g.N(), p, got, wantPlan)
			}
		}
	}
}

// TestNonTreeProbeKeepsMatrix: a graph with m = n − 1 edges that is no
// tree (a cycle plus an isolated vertex) is probed by APSP, as is every
// graph with another edge count.
func TestNonTreeProbeKeepsMatrix(t *testing.T) {
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		g.AddEdge(e[0], e[1])
	}
	for _, h := range []*graph.Graph{g, graph.Cycle(6), graph.Complete(4)} {
		pr, err := newProbe(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		want := apspProbe(h)
		if pr.dist == nil || pr.Connected != want.Connected || pr.Diameter != want.Diameter {
			t.Fatalf("n=%d m=%d: probe (matrix %v, connected %v, diameter %d), APSP (%v, %d)",
				h.N(), h.M(), pr.dist != nil, pr.Connected, pr.Diameter, want.Connected, want.Diameter)
		}
	}
}

// solveWithAPSPProbe plans and runs one connected instance over an APSP
// probe, whose matrix every route finds built.
func solveWithAPSPProbe(t *testing.T, g *graph.Graph, p labeling.Vector, opts *Options) *Result {
	t.Helper()
	pr := apspProbe(g)
	_, m, err := planSingle(pr, p, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(context.Background(), pr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method == "" {
		res.Method = m.Name()
	}
	return res
}

// TestTreeMatrixReaders: every route that reads the matrix of a tree
// builds it lazily and returns the span and labeling it returns over an
// APSP probe, and the result verifies.
func TestTreeMatrixReaders(t *testing.T) {
	r := rng.New(2203)
	small := graph.RandomTree(r, 9)
	cases := []struct {
		g      *graph.Graph
		p      labeling.Vector
		method MethodName // pinned; empty plans freely
		want   MethodName
	}{
		{graph.Star(9), labeling.Vector{2, 1}, MethodReduction, MethodReduction},
		{graph.Star(12), labeling.Vector{2, 2, 1}, MethodReduction, MethodReduction},
		{graph.Star(12), labeling.Vector{2, 2, 1}, "", MethodReduction},
		{graph.RandomTree(r, 60), labeling.Vector{2, 1}, MethodGreedy, MethodGreedy},
		{graph.Star(10), labeling.Vector{3, 1}, "", MethodPmaxApprox},
		{small, labeling.Vector{3, 1}, MethodPmaxApprox, MethodPmaxApprox},
		{graph.Star(10), labeling.Vector{1, 1}, "", MethodFPTColoring},
		{caterpillar(r, 12), labeling.Vector{2, 1, 1}, "", ""},
		{graph.RandomTree(r, 40), labeling.Vector{2, 1, 1}, "", ""},
	}
	for i, tc := range cases {
		name := fmt.Sprintf("#%d n=%d p=%v pinned=%q", i, tc.g.N(), tc.p, tc.method)
		opts := &Options{Method: tc.method, Verify: true, NoCache: true}
		got, err := Solve(tc.g, tc.p, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := solveWithAPSPProbe(t, tc.g, tc.p, &Options{Method: tc.method})
		if tc.want != "" && got.Method != tc.want {
			t.Fatalf("%s: solved by %s, want %s", name, got.Method, tc.want)
		}
		if got.Method != want.Method || got.Span != want.Span || !slices.Equal(got.Labeling, want.Labeling) ||
			got.Exact != want.Exact || got.Approx != want.Approx {
			t.Fatalf("%s: %s span %d exact %v approx %v %v, over an APSP probe %s span %d exact %v approx %v %v",
				name, got.Method, got.Span, got.Exact, got.Approx, got.Labeling,
				want.Method, want.Span, want.Exact, want.Approx, want.Labeling)
		}
		if err := labeling.Verify(tc.g, tc.p, got.Labeling); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestLazyMatrixCanceled: when the context a tree was probed under is
// canceled before a route reads the matrix, every reader returns the
// context's error, and planning does not fall through to another route.
func TestLazyMatrixCanceled(t *testing.T) {
	probe := func(g *graph.Graph) (*Probe, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		pr, err := newProbe(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if pr.dist != nil {
			t.Fatal("the tree probe built a matrix")
		}
		return pr, cancel
	}
	star := graph.Star(10)
	checks := []struct {
		name string
		run  func(pr *Probe) error
	}{
		{"Dist", func(pr *Probe) error { _, err := pr.Dist(); return err }},
		{"plan (1,1)", func(pr *Probe) error { _, _, err := planSingle(pr, labeling.Vector{1, 1}, nil, 0); return err }},
		{"plan (3,1)", func(pr *Probe) error { _, _, err := planSingle(pr, labeling.Vector{3, 1}, nil, 0); return err }},
		{"forced fpt-coloring", func(pr *Probe) error {
			_, _, err := planSingle(pr, labeling.Vector{1, 1}, &Options{Method: MethodFPTColoring}, 0)
			return err
		}},
		{"reduction", func(pr *Probe) error {
			_, err := reductionMethod{}.Solve(pr.ctx, pr, labeling.Vector{2, 2, 1}, nil)
			return err
		}},
		{"greedy", func(pr *Probe) error {
			_, err := greedyMethod{}.Solve(pr.ctx, pr, labeling.Vector{2, 1}, nil)
			return err
		}},
	}
	for _, c := range checks {
		pr, cancel := probe(star)
		cancel()
		if err := c.run(pr); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want context.Canceled", c.name, err)
		}
		if _, err := pr.Dist(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: a later Dist returned %v, want the same context.Canceled", c.name, err)
		}
	}
	// A context canceled before the probe fails the probe itself, on the
	// tree path as on the APSP path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, g := range []*graph.Graph{star, graph.Cycle(5)} {
		if _, err := newProbe(ctx, g); !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d m=%d: newProbe under a canceled context returned %v", g.N(), g.M(), err)
		}
	}
}

// TestTreeSolveSkipsMatrix: an unpinned p = (2,1) solve of a 384-vertex
// random tree, verified, takes the tree route and allocates less than
// 64 kB; its distance matrix alone would be 295 kB.
func TestTreeSolveSkipsMatrix(t *testing.T) {
	g := graph.RandomTree(rng.New(5), 384)
	opts := &Options{Verify: true, NoCache: true}
	if _, err := Solve(g, labeling.L21(), opts); err != nil { // warm the scratch pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Solve(g, labeling.L21(), opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodTree || !res.Exact {
		t.Fatalf("method=%s exact=%v, want an exact tree answer", res.Method, res.Exact)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("tree solve allocated %d bytes", alloc)
	}
}
