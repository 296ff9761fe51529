package tsp

import (
	"fmt"

	"lpltsp/internal/matching"
)

// ChristofidesPathGreedyMatching is the ablation variant of
// ChristofidesPath that replaces the exact blossom matcher with the greedy
// perfect matcher. It quantifies how much of the 1.5 guarantee the exact
// matching buys (ablation A2 in internal/bench): with greedy matching the
// pipeline degrades toward a 2-approximation.
func ChristofidesPathGreedyMatching(ins *Instance) (Tour, int64, error) {
	n := ins.n
	if n <= 2 {
		return identity(n), ins.PathCost(identity(n)), nil
	}
	mg, odd := mstOdd(ins)
	// Greedy near-perfect matching on the odd vertices, leaving the two
	// most expensive-to-match vertices unmatched: greedily match all but
	// the final pair, then drop the last (most expensive) pair.
	k := len(odd)
	mate, _, err := matching.GreedyPerfect(k, func(i, j int) int64 {
		return ins.Weight(odd[i], odd[j])
	})
	if err != nil {
		return nil, 0, fmt.Errorf("tsp: greedy matching: %w", err)
	}
	// Find the pair with the largest weight and leave it unmatched (its
	// two endpoints become the trail ends).
	worstI := -1
	var worstW int64 = -1
	for i, j := range mate {
		if i < j {
			if w := ins.Weight(odd[i], odd[j]); w > worstW {
				worstW = w
				worstI = i
			}
		}
	}
	endA, endB := odd[worstI], odd[mate[worstI]]
	for i, j := range mate {
		if i < j && i != worstI {
			mg.AddEdge(odd[i], odd[j])
		}
	}
	walk, err := mg.Trail(endA, endB)
	if err != nil {
		return nil, 0, fmt.Errorf("tsp: greedy-christofides euler: %w", err)
	}
	tour := shortcut(walk, n)
	return tour, ins.PathCost(tour), nil
}
