package tsp

import (
	"fmt"
	"slices"
	"testing"

	"lpltsp/internal/dsu"
	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

// countingSortSweep is the oracle of the per-class sweep: the greedy-edge
// sweep over an explicit edge list. Every upper-triangle edge of a compact
// instance goes into one list, counting-sorted by weight-class rank (each
// bucket lexicographic, since the fill scans (i, j) in lex order), and the
// list is offered to Kruskal's forest and the path forest, with no skipped
// row, until the path has n−1 edges.
func countingSortSweep(ins *Instance) (Tour, int64) {
	n := ins.n
	if n <= 1 {
		return identity(n), 0
	}
	type edge struct {
		w    int64
		u, v int
	}
	cnt := make([]int, len(ins.classW)+1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cnt[ins.classOf[ins.dist[i*n+j]]+1]++
		}
	}
	for c := 2; c < len(cnt); c++ {
		cnt[c] += cnt[c-1]
	}
	edges := make([]edge, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := ins.dist[i*n+j]
			c := ins.classOf[d]
			edges[cnt[c]] = edge{ins.lut[d], i, j}
			cnt[c]++
		}
	}
	deg := make([]int, n)
	adj := make([][2]int, n)
	for i := range adj {
		adj[i] = [2]int{-1, -1}
	}
	var path, kruskal dsu.DSU
	path.Reset(n)
	kruskal.Reset(n)
	taken, spanned := 0, 0
	var mst int64
	for _, e := range edges {
		if taken == n-1 {
			break
		}
		if spanned < n-1 && kruskal.Union(e.u, e.v) {
			mst += e.w
			spanned++
		}
		if deg[e.u] >= 2 || deg[e.v] >= 2 || path.Same(e.u, e.v) {
			continue
		}
		path.Union(e.u, e.v)
		adj[e.u][deg[e.u]] = e.v
		adj[e.v][deg[e.v]] = e.u
		deg[e.u]++
		deg[e.v]++
		taken++
	}
	start := 0
	for v := 0; v < n; v++ {
		if deg[v] <= 1 {
			start = v
			break
		}
	}
	tour := make(Tour, 0, n)
	prev, cur := -1, start
	for len(tour) < n {
		tour = append(tour, cur)
		next := adj[cur][0]
		if next == prev || next == -1 {
			next = adj[cur][1]
		}
		prev, cur = cur, next
		if cur == -1 {
			break
		}
	}
	return tour, mst
}

// sweepWeightPatterns are the class-weight shapes of the equivalence
// sweep: one to four distinct weights, tied ones among them, cycled over
// the distances a graph has.
var sweepWeightPatterns = [][]int64{
	{1},
	{2, 1},
	{1, 2},
	{2, 2, 1},
	{1, 2, 2},
	{3, 2, 2, 1},
	{2, 3, 1, 4},
	{4, 3, 2, 1},
	{5, 5, 5},
}

// classWeightsFor cycles pattern over the distances 1…diam.
func classWeightsFor(pattern []int64, diam int) []int64 {
	cw := make([]int64, max(diam, 1))
	for d := range cw {
		cw[d] = pattern[d%len(pattern)]
	}
	return cw
}

// checkSweepMatchesOracle builds the compact instance of g's BFS matrix
// under the cycled pattern and demands the sweep's tour and spanning-tree
// weight be bit-identical to the counting-sort oracle's.
func checkSweepMatchesOracle(t *testing.T, label string, g *graph.Graph, pattern []int64) {
	t.Helper()
	dm := g.AllPairsDistances()
	diam, disc := dm.Max()
	if disc {
		t.Fatalf("%s: disconnected test graph", label)
	}
	ins := NewClassInstance(g.N(), dm.Data(), diam, classWeightsFor(pattern, diam))
	tour, mst := GreedyEdgePathMST(ins)
	wantTour, wantMST := countingSortSweep(ins)
	if mst != wantMST {
		t.Fatalf("%s (n=%d, weights %v): spanning-tree weight %d, oracle %d", label, g.N(), pattern, mst, wantMST)
	}
	if !slices.Equal(tour, wantTour) {
		t.Fatalf("%s (n=%d, weights %v): tour %v, oracle %v", label, g.N(), pattern, tour, wantTour)
	}
}

// TestGreedySweepMatchesCountingSort: on BFS matrices of connected
// small-diameter, diameter-2 and tree graphs with n = 1…130, under one to
// four weight classes with ties, the per-class sweep returns exactly the
// counting-sort oracle's tour and spanning-tree weight.
func TestGreedySweepMatchesCountingSort(t *testing.T) {
	r := rng.New(2201)
	cases := 0
	for trial := 0; trial < 130; trial++ {
		n := 1 + trial
		graphs := []struct {
			name string
			g    *graph.Graph
		}{
			{"smalldiam", graph.RandomSmallDiameter(r, n, 2+r.Intn(4), r.Float64()*0.2)},
			{"diameter2", graph.RandomDiameter2(r, n, r.Float64()*0.6)},
			{"tree", graph.RandomTree(r, n)},
		}
		for _, gc := range graphs {
			for _, pattern := range sweepWeightPatterns {
				checkSweepMatchesOracle(t, fmt.Sprintf("%s #%d", gc.name, trial), gc.g, pattern)
				cases++
			}
		}
	}
	for _, g := range []*graph.Graph{graph.Path(40), graph.Star(40), graph.Complete(40), graph.Cycle(41)} {
		for _, pattern := range sweepWeightPatterns {
			checkSweepMatchesOracle(t, "classic", g, pattern)
			cases++
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d instances checked", cases)
	}
}

// FuzzGreedyEdgeSweep: for any connected graph decoded from the input (a
// random-attachment spanning tree plus extra edges, up to 130 vertices),
// its BFS matrix and class weights drawn from the input, the sweep's tour
// and spanning-tree weight equal the counting-sort oracle's.
func FuzzGreedyEdgeSweep(f *testing.F) {
	f.Add(uint8(12), uint64(0x9e3779b97f4a7c15), uint8(0), []byte{1, 2})
	f.Add(uint8(64), uint64(7), uint8(40), []byte{2, 2, 1})
	f.Add(uint8(129), uint64(11), uint8(3), []byte{3, 2, 2, 1})
	f.Add(uint8(1), uint64(0), uint8(0), []byte{1})
	f.Add(uint8(30), uint64(5), uint8(255), []byte{2, 1})
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, density uint8, weights []byte) {
		nv := int(n)%130 + 1
		r := rng.New(seed)
		g := graph.RandomConnected(r, nv, float64(density)/512)
		pattern := make([]int64, 0, 4)
		for _, w := range weights {
			if len(pattern) == 4 {
				break
			}
			pattern = append(pattern, int64(w%5)+1)
		}
		if len(pattern) == 0 {
			pattern = append(pattern, 1)
		}
		checkSweepMatchesOracle(t, "fuzz", g, pattern)
	})
}
