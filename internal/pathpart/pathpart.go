// Package pathpart solves PARTITION INTO PATHS: partition the vertices of
// a graph into a minimum number of vertex-disjoint simple paths (isolated
// vertices count as length-0 paths).
//
// The paper's Corollary 2 ties L(p)-LABELING to this problem whenever p
// takes two values a < b at the distances the graph has: a Hamiltonian
// path of the reduced instance with j heavy edges splits into j+1 paths
// of H_a, the graph of the weight-a pairs, so λ = (n−1)·a + (b−a)·(s−1)
// where s is the minimum number of paths covering H_a (on a diameter-2
// graph H_a is G when p ≤ q and its complement when p > q). The
// reduction's two-weight branch in internal/core covers H_a with Greedy,
// with the subset DP (Exact) for n ≤ ExactMaxN, and with the cotree
// construction (CographPaths) when H_a is a cograph. The subset DP stands
// in for the FPT algorithm in modular-width (Gajarský et al.) that the
// paper cites.
package pathpart

import (
	"fmt"
	"math"
	"math/bits"

	"lpltsp/internal/graph"
)

// ExactMaxN caps the subset DP (O(2ⁿ·(n+m)) time, 2ⁿ·n bytes: 92 MB at
// n = 22).
const ExactMaxN = 22

// Exact returns a minimum partition of V(g) into paths, each path as a
// vertex sequence. Works on any graph (including disconnected ones).
func Exact(g *graph.Graph) ([][]int, error) {
	n := g.N()
	if n > ExactMaxN {
		return nil, fmt.Errorf("pathpart: exact limited to n <= %d, got %d", ExactMaxN, n)
	}
	if n == 0 {
		return nil, nil
	}
	// dp[mask*n+v] = minimum number of paths needed to cover exactly the
	// vertices of mask, where the current (last) path ends at v. Values
	// are at most n, so a byte holds them.
	size := 1 << uint(n)
	const inf = math.MaxUint8
	dp := make([]uint8, size*n)
	for i := range dp {
		dp[i] = inf
	}
	nb := make([]uint32, n)
	for v := 0; v < n; v++ {
		var m uint32
		for _, u := range g.Neighbors(v) {
			m |= 1 << uint(u)
		}
		nb[v] = m
	}
	for v := 0; v < n; v++ {
		dp[(1<<uint(v))*n+v] = 1
	}
	for mask := 1; mask < size; mask++ {
		base := mask * n
		best := uint8(inf)
		for rest := uint32(mask); rest != 0; rest &= rest - 1 {
			v := bits.TrailingZeros32(rest)
			cur := dp[base+v]
			best = min(best, cur)
			// Extend the current path along an edge v-u.
			for ext := nb[v] &^ uint32(mask); ext != 0; ext &= ext - 1 {
				u := bits.TrailingZeros32(ext)
				if i := (mask|1<<uint(u))*n + u; cur < dp[i] {
					dp[i] = cur
				}
			}
		}
		// Or close the current path where it is cheapest and start a new
		// one at any u ∉ mask. Masks grow, so every state of mask is final
		// here, and finite: mask ∖ {v} is covered before v starts a path.
		for out := uint32((size - 1) &^ mask); out != 0; out &= out - 1 {
			u := bits.TrailingZeros32(out)
			if i := (mask|1<<uint(u))*n + u; best+1 < dp[i] {
				dp[i] = best + 1
			}
		}
	}
	full := size - 1
	v := 0
	for u := 1; u < n; u++ {
		if dp[full*n+u] < dp[full*n+v] {
			v = u
		}
	}
	// Reconstruct backwards, re-deriving each predecessor from dp: v
	// either extended a path ending at a neighbour w with the same count,
	// or started a new path after one ending at any w with one fewer.
	var paths [][]int
	cur := []int{v}
	for mask := full; ; {
		d := dp[mask*n+v]
		prev := mask &^ (1 << uint(v))
		if prev == 0 {
			return append(paths, reversed(cur)), nil
		}
		w := -1
		for x := nb[v] & uint32(prev); x != 0 && w < 0; x &= x - 1 {
			if u := bits.TrailingZeros32(x); dp[prev*n+u] == d {
				w = u
			}
		}
		if w >= 0 {
			cur = append(cur, w)
		} else {
			for x := uint32(prev); x != 0 && w < 0; x &= x - 1 {
				if u := bits.TrailingZeros32(x); dp[prev*n+u] == d-1 {
					w = u
				}
			}
			if w < 0 {
				return nil, fmt.Errorf("pathpart: internal error: no predecessor of vertex %d", v)
			}
			paths = append(paths, reversed(cur))
			cur = []int{w}
		}
		mask, v = prev, w
	}
}

func reversed(s []int) []int {
	out := make([]int, len(s))
	for i, x := range s {
		out[len(s)-1-i] = x
	}
	return out
}

// Greedy returns a (not necessarily minimum) partition into paths: grow a
// path greedily from each unused vertex, preferring low-degree endpoints.
// Used for instances beyond the exact DP's reach.
func Greedy(g *graph.Graph) [][]int {
	n := g.N()
	used := make([]bool, n)
	var paths [][]int
	// Process vertices by increasing degree: pendant vertices should be
	// path endpoints.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && g.Degree(order[j]) < g.Degree(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, s := range order {
		if used[s] {
			continue
		}
		path := []int{s}
		used[s] = true
		// Extend forward then backward.
		for dir := 0; dir < 2; dir++ {
			for {
				end := path[len(path)-1]
				next := -1
				for _, u := range g.Neighbors(end) {
					if !used[u] && (next == -1 || g.Degree(int(u)) < g.Degree(next)) {
						next = int(u)
					}
				}
				if next < 0 {
					break
				}
				used[next] = true
				path = append(path, next)
			}
			path = reversed(path)
		}
		paths = append(paths, path)
	}
	return paths
}

// Verify checks that paths is a partition of V(g) into vertex-disjoint
// simple paths whose consecutive vertices are adjacent in g.
func Verify(g *graph.Graph, paths [][]int) error {
	n := g.N()
	seen := make([]bool, n)
	count := 0
	for pi, p := range paths {
		if len(p) == 0 {
			return fmt.Errorf("pathpart: path %d is empty", pi)
		}
		for i, v := range p {
			if v < 0 || v >= n {
				return fmt.Errorf("pathpart: path %d vertex %d out of range", pi, v)
			}
			if seen[v] {
				return fmt.Errorf("pathpart: vertex %d appears twice", v)
			}
			seen[v] = true
			count++
			if i > 0 && !g.HasEdge(p[i-1], v) {
				return fmt.Errorf("pathpart: path %d uses non-edge {%d,%d}", pi, p[i-1], v)
			}
		}
	}
	if count != n {
		return fmt.Errorf("pathpart: %d of %d vertices covered", count, n)
	}
	return nil
}
