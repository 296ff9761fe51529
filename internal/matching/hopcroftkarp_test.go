package matching

import (
	"testing"

	"lpltsp/internal/rng"
)

// kuhnSize is the reference maximum bipartite matching size: one plain
// augmenting-path search per left vertex (Kuhn's algorithm).
func kuhnSize(nLeft, nRight int, adj [][]int32) int {
	mateR := fill(nRight, none)
	var try func(u int, seen []bool) bool
	try = func(u int, seen []bool) bool {
		for _, v := range adj[u] {
			if seen[v] {
				continue
			}
			seen[v] = true
			if mateR[v] == none || try(mateR[v], seen) {
				mateR[v] = u
				return true
			}
		}
		return false
	}
	size := 0
	for u := 0; u < nLeft; u++ {
		if try(u, make([]bool, nRight)) {
			size++
		}
	}
	return size
}

// checkBipartite fails unless mate is a matching along edges of adj, and
// returns its size.
func checkBipartite(t *testing.T, nRight int, adj [][]int32, mate []int) int {
	t.Helper()
	owner := fill(nRight, none)
	size := 0
	for u, v := range mate {
		if v == none {
			continue
		}
		if v < 0 || v >= nRight {
			t.Fatalf("left %d matched to out-of-range right %d", u, v)
		}
		if owner[v] != none {
			t.Fatalf("right %d matched to both %d and %d", v, owner[v], u)
		}
		owner[v] = u
		found := false
		for _, w := range adj[u] {
			found = found || int(w) == v
		}
		if !found {
			t.Fatalf("left %d matched along the non-edge to %d", u, v)
		}
		size++
	}
	return size
}

func TestHopcroftKarpMatchesKuhn(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 600; trial++ {
		nl, nr := r.Intn(40), r.Intn(40)
		if trial%3 == 0 {
			nr = nl
		}
		density := r.Float64() * 0.3
		adj := make([][]int32, nl)
		for u := range adj {
			for v := 0; v < nr; v++ {
				if r.Float64() < density {
					adj[u] = append(adj[u], int32(v))
				}
			}
		}
		mate := HopcroftKarp(nl, nr, func(u int) []int32 { return adj[u] })
		if len(mate) != nl {
			t.Fatalf("trial %d: %d mates for %d left vertices", trial, len(mate), nl)
		}
		if got, want := checkBipartite(t, nr, adj, mate), kuhnSize(nl, nr, adj); got != want {
			t.Fatalf("trial %d (%d×%d, density %.2f): matching of %d, maximum is %d", trial, nl, nr, density, got, want)
		}
	}
}

// TestHopcroftKarpLongAugmentingPaths: on the double cover of a path
// whose neighbours are listed successor first, the greedy start matches
// left u to right u+1, which strands left n-1 and right 0 at opposite
// ends: the last phase augments along a path of linear length. A path's
// double cover is two copies of the path, so the maximum is 2·⌊n/2⌋.
func TestHopcroftKarpLongAugmentingPaths(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 5000, 5001} {
		adj := make([][]int32, n)
		for u := 0; u < n; u++ {
			if u+1 < n {
				adj[u] = append(adj[u], int32(u+1))
			}
			if u > 0 {
				adj[u] = append(adj[u], int32(u-1))
			}
		}
		mate := HopcroftKarp(n, n, func(u int) []int32 { return adj[u] })
		if got, want := checkBipartite(t, n, adj, mate), 2*(n/2); got != want {
			t.Fatalf("path double cover n=%d: matching of %d, want %d", n, got, want)
		}
	}
}
