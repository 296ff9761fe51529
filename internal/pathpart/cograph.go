package pathpart

import "lpltsp/internal/graph"

// Cograph-specific exact path-cover counting. Connected cographs have
// diameter ≤ 2, so they sit squarely inside Corollary 2's scope, and
// their cotree (modular decomposition without prime nodes) admits the
// classical linear recurrence for the minimum path cover:
//
//	leaf:            pc = 1
//	union  A ∪ B:    pc = pc(A) + pc(B)
//	join   A ∗ B:    pc = max(1, pc(A) − |B|, pc(B) − |A|)
//
// The join case holds because deleting the b = |B| vertices from any path
// cover of A∗B fragments it into at least pc(A) pieces while each deleted
// vertex mends at most one fragmentation (lower bound), and because
// individual B vertices can splice consecutive A paths while B's own path
// edges absorb any surplus (achievability). This extends exact Corollary 2
// *counting* far past the 2ⁿ DP's n ≤ 22 limit for this graph class; the
// recurrence is cross-validated against the exact DP in tests.

// CographCount returns the minimum number of vertex-disjoint paths
// covering g: the paths of CographPaths, whose joins realize the
// recurrence above. It errors if g is not a cograph, at the first vertex
// set that neither g nor its complement splits, so rejecting a graph
// costs only the splits above its first prime node: O(n + m) when g and
// its complement are both connected.
func CographCount(g *graph.Graph) (int, error) {
	paths, err := CographPaths(g)
	if err != nil {
		return 0, err
	}
	return len(paths), nil
}

func joinPC(pcA, a, pcB, b int) int {
	t := 1
	if pcA-b > t {
		t = pcA - b
	}
	if pcB-a > t {
		t = pcB - a
	}
	return t
}
