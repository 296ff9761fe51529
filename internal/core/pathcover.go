package core

import (
	"time"

	"lpltsp/internal/graph"
	"lpltsp/internal/matching"
	"lpltsp/internal/pathpart"
	"lpltsp/internal/tsp"
)

// Two weights. When p takes exactly two values a < b at the distances a
// connected graph has (every distance 1…diam occurs), a Hamiltonian path
// of H with j heavy edges costs (n−1)·a + (b−a)·j, and its light edges
// split V into j+1 paths of H_a, the graph of the weight-a pairs. So
// λ_p(G) = (n−1)·a + (b−a)·(pc(H_a) − 1), pc being the fewest
// vertex-disjoint paths covering H_a: Corollary 2's argument, for any k.
//
// Orienting the paths of a cover makes the (vertex, successor) pairs a
// matching of the bipartite double cover of H_a, and each path stays
// inside one component C. So C needs at least max(1, |C| − ν_C) paths,
// where ν_C is a maximum matching of C's double cover, and the sum over
// the components bounds pc from below. That sum is never below the
// component count, which is all the spanning-tree bound sees.

// twoWeights returns the two values a < b that p takes at the distances
// 1…Diameter, and false when it takes one value or three or more. O(k).
func (r *Reduction) twoWeights() (a, b int64, ok bool) {
	if r.Diameter < 1 {
		return 0, 0, false
	}
	a, b = int64(r.P[0]), int64(r.P[0])
	for _, x := range r.P[1:r.Diameter] {
		switch w := int64(x); {
		case w == a || w == b:
		case a != b:
			return 0, 0, false
		case w < a:
			a = w
		default:
			b = w
		}
	}
	return a, b, a != b
}

// coverBound builds H_a from the distance-matrix rows, keeps it and the
// path-count bound for the certificate, and returns the path-cover bound
// (n−1)·a + (b−a)·(minPaths − 1) of a two-weight instance.
func (r *Reduction) coverBound(a, b int64) int64 {
	at := make([]bool, r.Diameter+1)
	for d := 1; d <= r.Diameter; d++ {
		at[d] = int64(r.P[d-1]) == a
	}
	r.light = r.Dist.Graph(at)
	r.minPaths = pathCoverBound(r.light)
	return int64(r.G.N()-1)*a + (b-a)*int64(r.minPaths-1)
}

// pathCoverBound returns Σ_C max(1, |C| − ν_C) over the components C of
// h: no cover of h by vertex-disjoint paths has fewer paths. One
// Hopcroft–Karp run over the double cover of the whole graph gives every
// ν_C, as the number of matched left copies in C, since no edge of the
// double cover joins two components.
func pathCoverBound(h *graph.Graph) int {
	mate := matching.HopcroftKarp(h.N(), h.N(), h.Neighbors)
	total := 0
	for _, c := range h.ConnectedComponents() {
		unmatched := 0
		for _, v := range c {
			if mate[v] < 0 {
				unmatched++
			}
		}
		total += max(1, unmatched)
	}
	return total
}

// coverPaths covers h by vertex-disjoint paths and reports whether the
// cover is minimum. bound is pathCoverBound(h). In order: the greedy
// cover, its consecutive paths joined wherever the junction is an edge of
// h, is minimum when it meets bound; the subset DP is exact for n ≤
// pathpart.ExactMaxN; the cotree cover is exact when h is a cograph.
// Otherwise the joined greedy cover comes back, inexact.
func coverPaths(h *graph.Graph, bound int) ([][]int, bool, error) {
	greedy := joinAdjacent(h, pathpart.Greedy(h))
	if len(greedy) == bound {
		return greedy, true, nil
	}
	if h.N() <= pathpart.ExactMaxN {
		paths, err := pathpart.Exact(h)
		return paths, err == nil, err
	}
	if paths, err := pathpart.CographPaths(h); err == nil {
		return paths, true, nil
	}
	return greedy, false, nil
}

// joinAdjacent concatenates consecutive paths whose junction is an edge of
// h. The paths walked in order are the same tour either way, and its heavy
// edges are exactly the junctions between the returned paths.
func joinAdjacent(h *graph.Graph, paths [][]int) [][]int {
	var out [][]int
	for _, p := range paths {
		if k := len(out) - 1; k >= 0 && h.HasEdge(out[k][len(out[k])-1], p[0]) {
			out[k] = append(out[k], p...)
			continue
		}
		out = append(out, p)
	}
	return out
}

// certify answers the reduction exactly with no engine when it can prove
// a path optimal: first the greedy-edge path, when its weight meets
// LowerBound (the same sweep yields the spanning-tree weight, which is
// the bound unless the instance has two weights); then, on a two-weight
// instance, an exact cover of H_a from coverPaths, walked in order. It
// returns nil when neither applies, and the caller races engines.
func (r *Reduction) certify() (*Result, error) {
	t1 := time.Now()
	tour, mst := tsp.GreedyEdgePathMST(r.Instance)
	lb := r.lowerBound(mst)
	algo, cost := tsp.AlgoGreedyEdge, r.Instance.PathCost(tour)
	if cost != lb {
		if r.light == nil {
			return nil, nil
		}
		paths, exact, err := coverPaths(r.light, r.minPaths)
		if !exact || err != nil {
			return nil, err
		}
		tour = tour[:0]
		for _, p := range paths {
			tour = append(tour, p...)
		}
		algo, cost = AlgoPathCover, r.Instance.PathCost(tour)
	}
	res, err := r.resultFromTour(tour, algo, tsp.Stats{Cost: cost, Optimal: true}, false)
	if err != nil {
		return nil, err
	}
	res.SolveTime = time.Since(t1)
	res.Method = MethodReduction
	res.Approx = 1
	return res, nil
}
