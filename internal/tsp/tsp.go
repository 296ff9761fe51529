// Package tsp implements the traveling-salesman machinery the paper's
// reduction targets: METRIC PATH TSP with free endpoints (Theorem 2) over
// the compact instances the reduction builds, solved by exact engines
// (Held–Karp dynamic programming, branch and bound), the Hoogeveen variant
// of Christofides, and a chained local-search family (2-opt, Or-opt,
// double-bridge restarts) standing in for Lin–Kernighan-style engines.
//
// # Instances
//
// The reduction's weights are w(u,v) = p[dist(u,v)-1], so at most
// k = dim(p) distinct values occur. NewClassInstance stores only a shared
// row-major []uint16 distance matrix plus a (diameter+1)-entry
// distance→weight lookup table — 2 bytes per entry, with no copy and no
// scan of the matrix the reduction already computed.
//
// Instances are immutable and also expose the weight-class structure
// (classOf/classW): the distinct weights sorted ascending and a
// distance→class-rank map. Engines exploit it for comparison-sort-free
// neighbor lists and for greedy-edge sweeps that walk the matrix once per
// weight class, in (weight, u, v) order with no edge list (O(k·n²) at
// worst instead of O(n² log n), and stopping at the last path edge).
//
// # Memory model
//
// An Instance aliases the caller's distance matrix read-only; it is never
// written through. Engines treat every Instance as read-only while
// solving, so one Instance (and hence one distance matrix) may be shared
// by many concurrently racing engines and batch workers. Hot-path scratch
// (neighbor lists, don't-look bits, DP layers, BnB node buffers) comes
// from package-level sync.Pools, so steady-state solving does no
// per-instance heap allocation beyond the returned tours.
package tsp

import "fmt"

// Instance is a symmetric TSP instance on n vertices with int64 weights
// and a zero diagonal, backed by a shared distance matrix and a
// weight-class lookup (see the package comment). Instances built by the
// labeling reduction satisfy the triangle inequality (weights within
// [pmin, 2pmin]).
type Instance struct {
	n int

	// dist is the shared row-major distance matrix (aliased, read-only);
	// lut[d] is the weight of distance class d with lut[0] = 0, truncated
	// to the largest distance. classOf[d] ranks distance d among the
	// distinct weights (ascending); classW lists those distinct weights
	// ascending.
	dist    []uint16
	lut     []int64
	classOf []int32
	classW  []int64
}

// NewClassInstance returns an instance over the row-major n×n BFS
// distance matrix of a connected graph whose largest distance is maxDist,
// with per-distance class weights: Weight(i,j) =
// classWeights[dist[i*n+j]-1]. The matrix is aliased read-only, not copied
// — the caller must not mutate it while the instance is in use (sharing it
// across concurrent solvers is fine, and the point).
//
// The matrix is not scanned, so the class tables cost O(maxDist), not n².
// The caller vouches for what such a matrix guarantees: a zero diagonal,
// every off-diagonal entry in [1, maxDist], and every distance 1…maxDist
// occurring between some pair. graph.DistMatrix.Max records maxDist. A
// matrix of the wrong size, or a maxDist past len(classWeights) (or below
// 1 with two or more vertices), panics, since either would corrupt every
// solve.
func NewClassInstance(n int, dist []uint16, maxDist int, classWeights []int64) *Instance {
	if n < 0 {
		panic("tsp: negative size")
	}
	if len(dist) != n*n {
		panic(fmt.Sprintf("tsp: distance matrix has %d entries for n=%d", len(dist), n))
	}
	if maxDist < 0 || maxDist > len(classWeights) || (n > 1 && maxDist < 1) {
		panic(fmt.Sprintf("tsp: largest distance %d outside weight classes [1,%d]", maxDist, len(classWeights)))
	}
	// lut[0] = 0 keeps diagonal lookups branch-free.
	lut := make([]int64, maxDist+1)
	copy(lut[1:], classWeights[:maxDist])
	// Rank the distances by weight ascending (stable in d).
	order := make([]int32, maxDist)
	for d := range order {
		order[d] = int32(d + 1)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && lut[order[j]] < lut[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	classOf := make([]int32, maxDist+1)
	classW := make([]int64, 0, len(order))
	for _, d := range order {
		if len(classW) == 0 || classW[len(classW)-1] != lut[d] {
			classW = append(classW, lut[d])
		}
		classOf[d] = int32(len(classW) - 1)
	}
	return &Instance{n: n, dist: dist, lut: lut, classOf: classOf, classW: classW}
}

// N returns the number of vertices.
func (ins *Instance) N() int { return ins.n }

// Classes returns the number of distinct weights among the distances
// 1…maxDist (≤ dim(p) for reduced instances).
func (ins *Instance) Classes() int { return len(ins.classW) }

// Weight returns w(i,j).
func (ins *Instance) Weight(i, j int) int64 { return ins.lut[ins.dist[i*ins.n+j]] }

// distRow returns the distance row of i. In-package engines pair it with
// ins.lut for branch-free weight lookups inside hot loops.
func (ins *Instance) distRow(i int) []uint16 { return ins.dist[i*ins.n : (i+1)*ins.n] }

// MinMaxWeight returns the smallest and largest off-diagonal weights,
// read from the weight classes. For n < 2 it returns (0, 0).
func (ins *Instance) MinMaxWeight() (min, max int64) {
	if ins.n < 2 {
		return 0, 0
	}
	return ins.classW[0], ins.classW[len(ins.classW)-1]
}

// IsMetric reports whether the weights satisfy the triangle inequality.
// O(n³); intended for tests and validation, not hot paths.
func (ins *Instance) IsMetric() bool {
	n := ins.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			wij := ins.Weight(i, j)
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if ins.Weight(i, k)+ins.Weight(k, j) < wij {
					return false
				}
			}
		}
	}
	return true
}

// Tour is a permutation of 0..n-1, interpreted as a Hamiltonian path in
// visit order.
type Tour []int

// PathCost returns the weight of the Hamiltonian path t[0]-t[1]-…-t[n-1].
func (ins *Instance) PathCost(t Tour) int64 {
	var c int64
	n, dist, lut := ins.n, ins.dist, ins.lut
	for i := 0; i+1 < len(t); i++ {
		c += lut[dist[t[i]*n+t[i+1]]]
	}
	return c
}

// ValidateTour checks that t is a permutation of 0..n-1.
func (ins *Instance) ValidateTour(t Tour) error {
	if len(t) != ins.n {
		return fmt.Errorf("tsp: tour length %d != n %d", len(t), ins.n)
	}
	seen := make([]bool, ins.n)
	for _, v := range t {
		if v < 0 || v >= ins.n {
			return fmt.Errorf("tsp: tour vertex %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("tsp: tour repeats vertex %d", v)
		}
		seen[v] = true
	}
	return nil
}

// Clone returns a copy of the tour.
func (t Tour) Clone() Tour { return append(Tour(nil), t...) }

// identity returns the identity tour on n vertices.
func identity(n int) Tour {
	t := make(Tour, n)
	for i := range t {
		t[i] = i
	}
	return t
}
