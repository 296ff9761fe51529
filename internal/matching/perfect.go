package matching

import "fmt"

// MinWeightPerfect computes a minimum-weight perfect matching of the
// complete graph on n vertices (n even) with weights w(i,j) ≥ 0. It returns
// mate[v] = partner of v and the total weight.
//
// Implementation: maximum-weight maximum-cardinality matching on the
// complement weights C − w (C = max weight); since every perfect matching
// of K_n has exactly n/2 edges, maximizing Σ(C−w) minimizes Σw, and
// max-cardinality mode guarantees the matching is perfect.
func MinWeightPerfect(n int, w func(i, j int) int64) (mate []int, total int64, err error) {
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j, w(i, j)})
		}
	}
	if mate, err = minPerfect(n, edges); err != nil {
		return nil, 0, err
	}
	for v, u := range mate {
		if v < u {
			total += w(v, u)
		}
	}
	return mate, total, nil
}

// MinWeightPerfectSparse computes a minimum-weight perfect matching over an
// explicit edge list (the graph need not be complete). Returns an error if
// no perfect matching exists.
func MinWeightPerfectSparse(n int, edges []Edge) (mate []int, total int64, err error) {
	if mate, err = minPerfect(n, append([]Edge(nil), edges...)); err != nil {
		return nil, 0, err
	}
	wOf := make(map[[2]int]int64, len(edges))
	for _, e := range edges {
		a, b := e.I, e.J
		if a > b {
			a, b = b, a
		}
		if old, ok := wOf[[2]int{a, b}]; !ok || e.W < old {
			wOf[[2]int{a, b}] = e.W
		}
	}
	for v, u := range mate {
		if v < u {
			total += wOf[[2]int{v, u}]
		}
	}
	return mate, total, nil
}

// minPerfect is the weight transform both entry points share. It rejects
// odd n and negative weights, then rewrites every weight w in place to
// maxW − w, so that maximum-weight maximum-cardinality matching prefers
// perfect matchings and, among them, minimizes the original weight. It
// errors when the result leaves a vertex unmatched; n = 0 yields a nil
// mate.
func minPerfect(n int, edges []Edge) ([]int, error) {
	if n%2 != 0 {
		return nil, fmt.Errorf("matching: perfect matching needs even n, got %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	var maxW int64
	for _, e := range edges {
		if e.W < 0 {
			return nil, fmt.Errorf("matching: negative weight w(%d,%d)=%d", e.I, e.J, e.W)
		}
		maxW = max(maxW, e.W)
	}
	for k := range edges {
		edges[k].W = maxW - edges[k].W
	}
	mate := MaxWeightMatching(n, edges, true)
	for v, u := range mate {
		if u < 0 {
			return nil, fmt.Errorf("matching: no perfect matching exists (vertex %d unmatched)", v)
		}
	}
	return mate, nil
}

// BruteForceMinPerfect computes a minimum-weight perfect matching by
// bitmask dynamic programming in O(2ⁿ·n) — the independent oracle used by
// the tests to validate the blossom implementation. n must be even and
// ≤ 24.
func BruteForceMinPerfect(n int, w func(i, j int) int64) (mate []int, total int64) {
	if n%2 != 0 || n > 24 {
		panic("matching: brute force needs even n <= 24")
	}
	if n == 0 {
		return nil, 0
	}
	const inf = int64(1) << 62
	size := 1 << uint(n)
	dp := make([]int64, size)
	choice := make([]int32, size)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for mask := 0; mask < size; mask++ {
		if dp[mask] == inf {
			continue
		}
		// First unmatched vertex.
		i := 0
		for i < n && mask&(1<<uint(i)) != 0 {
			i++
		}
		if i == n {
			continue
		}
		for j := i + 1; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				continue
			}
			next := mask | 1<<uint(i) | 1<<uint(j)
			if c := dp[mask] + w(i, j); c < dp[next] {
				dp[next] = c
				choice[next] = int32(i*32 + j)
			}
		}
	}
	mate = make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	mask := size - 1
	for mask != 0 {
		c := int(choice[mask])
		i, j := c/32, c%32
		mate[i], mate[j] = j, i
		mask &^= 1<<uint(i) | 1<<uint(j)
	}
	return mate, dp[size-1]
}
