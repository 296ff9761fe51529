package tsp

import (
	"context"
	"fmt"

	"lpltsp/internal/euler"
	"lpltsp/internal/matching"
	"lpltsp/internal/mst"
)

// ChristofidesPath computes a Hamiltonian path with free endpoints by the
// Hoogeveen variant of Christofides: build an MST T, then find a
// minimum-weight matching on the odd-degree vertices of T that leaves
// exactly two of them unmatched (via two zero-cost dummy vertices); T plus
// the matching has exactly two odd vertices, so an Eulerian trail exists
// and is shortcut to a Hamiltonian path. On metric instances this is the
// 1.5-approximation for PATH TSP with free ends that Corollary 1 needs.
func ChristofidesPath(ins *Instance) (Tour, int64, error) {
	return christofidesPath(context.Background(), ins)
}

// christofidesPath is ChristofidesPath with cancellation checkpoints
// between pipeline stages (MST, matching, Eulerian trail). The pipeline
// has no meaningful incumbent before the final shortcut, so a cancelled
// context yields ctx.Err().
func christofidesPath(ctx context.Context, ins *Instance) (Tour, int64, error) {
	n := ins.n
	if n <= 2 {
		return identity(n), ins.PathCost(identity(n)), nil
	}
	if canceled(ctx) {
		return nil, 0, ctx.Err()
	}
	mg, odd := mstOdd(ins)
	// A tree always has an even number ≥ 2 of odd-degree vertices.
	// Matching instance: odd vertices plus two dummies D1, D2. Dummies
	// connect to every odd vertex with weight 0; no dummy–dummy edge, so
	// exactly two odd vertices end up dummy-matched (= trail endpoints).
	k := len(odd)
	var sparse []matching.Edge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sparse = append(sparse, matching.Edge{I: i, J: j, W: ins.Weight(odd[i], odd[j])})
		}
	}
	d1, d2 := k, k+1
	for i := 0; i < k; i++ {
		sparse = append(sparse, matching.Edge{I: i, J: d1, W: 0})
		sparse = append(sparse, matching.Edge{I: i, J: d2, W: 0})
	}
	if canceled(ctx) {
		return nil, 0, ctx.Err()
	}
	mate, _, err := matching.MinWeightPerfectSparse(k+2, sparse)
	if err != nil {
		return nil, 0, fmt.Errorf("tsp: christofides-path matching: %w", err)
	}
	endA, endB := -1, -1
	for i := 0; i < k; i++ {
		switch mate[i] {
		case d1:
			endA = odd[i]
		case d2:
			endB = odd[i]
		default:
			if i < mate[i] {
				mg.AddEdge(odd[i], odd[mate[i]])
			}
		}
	}
	if endA < 0 || endB < 0 {
		return nil, 0, fmt.Errorf("tsp: christofides-path: dummies not both matched")
	}
	if canceled(ctx) {
		return nil, 0, ctx.Err()
	}
	walk, err := mg.Trail(endA, endB)
	if err != nil {
		return nil, 0, fmt.Errorf("tsp: christofides-path euler: %w", err)
	}
	tour := shortcut(walk, n)
	return tour, ins.PathCost(tour), nil
}

// mstOdd is the prelude ChristofidesPath and its greedy-matching ablation
// share: a minimum spanning tree loaded into a fresh multigraph, and the
// tree's odd-degree vertices in increasing order — the vertices the
// matching stage must pair up.
func mstOdd(ins *Instance) (*euler.Multigraph, []int) {
	n := ins.n
	parent, _ := mst.PrimDense(n, func(i, j int) int64 { return ins.Weight(i, j) })
	mg := euler.NewMultigraph(n)
	for v := 1; v < n; v++ {
		mg.AddEdge(v, parent[v])
	}
	var odd []int
	for v := 0; v < n; v++ {
		if mg.Degree(v)%2 == 1 {
			odd = append(odd, v)
		}
	}
	return mg, odd
}

// shortcut removes repeated vertices from an Eulerian walk, keeping first
// occurrences (valid on metric instances by the triangle inequality).
func shortcut(walk []int, n int) Tour {
	seen := make([]bool, n)
	tour := make(Tour, 0, n)
	for _, v := range walk {
		if !seen[v] {
			seen[v] = true
			tour = append(tour, v)
		}
	}
	return tour
}
