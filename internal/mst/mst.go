// Package mst computes minimum spanning trees. Two variants are provided:
// a dense Prim for complete metric instances (the TSP reduction's weighted
// graphs, O(n²) time and O(n) extra space) and a Kruskal for sparse edge
// lists. Christofides builds its tree with PrimDense; the TSP branch and
// bound and the reduction's path lower bound take a plain MST weight from
// PrimScratch.Total, since every Hamiltonian path is a spanning tree.
package mst

import (
	"sort"

	"lpltsp/internal/dsu"
)

// Edge is a weighted undirected edge.
type Edge struct {
	U, V int
	W    int64
}

// PrimDense computes an MST of the complete graph on n vertices whose
// weights are given by w(i,j). It returns parent pointers (parent[0] = -1,
// vertex 0 is the root) and the total weight. n must be ≥ 1.
func PrimDense(n int, w func(i, j int) int64) (parent []int, total int64) {
	if n < 1 {
		panic("mst: PrimDense needs n >= 1")
	}
	const inf = int64(1) << 62
	parent = make([]int, n)
	best := make([]int64, n)
	inTree := make([]bool, n)
	for i := range best {
		best[i] = inf
		parent[i] = -1
	}
	best[0] = 0
	for iter := 0; iter < n; iter++ {
		u, bu := -1, inf
		for v := 0; v < n; v++ {
			if !inTree[v] && best[v] < bu {
				u, bu = v, best[v]
			}
		}
		inTree[u] = true
		total += bu
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if wv := w(u, v); wv < best[v] {
					best[v] = wv
					parent[v] = u
				}
			}
		}
	}
	return parent, total
}

// PrimScratch holds PrimDense's working arrays for callers that compute
// MSTs in a tight loop (the TSP branch and bound runs one per search node)
// and cannot afford per-call allocation.
type PrimScratch struct {
	best   []int64
	inTree []bool
}

func (s *PrimScratch) grow(n int) {
	if cap(s.best) < n {
		s.best = make([]int64, n)
		s.inTree = make([]bool, n)
	}
	s.best = s.best[:n]
	s.inTree = s.inTree[:n]
}

// Total computes only the total weight of an MST of the complete graph on
// n vertices with weights w(i,j), reusing s's buffers (allocation-free
// after the first call at a given size). n must be ≥ 1.
func (s *PrimScratch) Total(n int, w func(i, j int) int64) (total int64) {
	if n < 1 {
		panic("mst: PrimScratch.Total needs n >= 1")
	}
	const inf = int64(1) << 62
	s.grow(n)
	best, inTree := s.best, s.inTree
	for i := 0; i < n; i++ {
		best[i] = inf
		inTree[i] = false
	}
	best[0] = 0
	for iter := 0; iter < n; iter++ {
		u, bu := -1, inf
		for v := 0; v < n; v++ {
			if !inTree[v] && best[v] < bu {
				u, bu = v, best[v]
			}
		}
		inTree[u] = true
		total += bu
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if wv := w(u, v); wv < best[v] {
					best[v] = wv
				}
			}
		}
	}
	return total
}

// Kruskal computes a minimum spanning forest of the given edges over n
// vertices. It returns the chosen edges and total weight. If the graph is
// connected the result is a spanning tree with n-1 edges.
func Kruskal(n int, edges []Edge) (tree []Edge, total int64) {
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].W < sorted[j].W })
	d := dsu.New(n)
	tree = make([]Edge, 0, n-1)
	for _, e := range sorted {
		if d.Union(e.U, e.V) {
			tree = append(tree, e)
			total += e.W
			if len(tree) == n-1 {
				break
			}
		}
	}
	return tree, total
}
