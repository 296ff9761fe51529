package matching

import "fmt"

// MinWeightPerfectSparse computes a minimum-weight perfect matching over an
// explicit edge list (the graph need not be complete) with weights ≥ 0. It
// returns mate[v] = partner of v, and errors on odd n, a negative weight,
// or when no perfect matching exists; n = 0 yields a nil mate.
//
// Implementation: maximum-weight maximum-cardinality matching on the
// complement weights maxW − w (maxW = largest weight). Max-cardinality
// mode prefers perfect matchings, and since every perfect matching has
// exactly n/2 edges, maximizing Σ(maxW − w) among them minimizes Σw.
func MinWeightPerfectSparse(n int, edges []Edge) ([]int, error) {
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
	comp := make([]Edge, len(edges))
	for k, e := range edges {
		comp[k] = Edge{e.I, e.J, maxW - e.W}
	}
	mate := MaxWeightMatching(n, comp, true)
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
