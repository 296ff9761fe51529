package core

import (
	"fmt"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/pathpart"
)

// Diameter2Result is the outcome of the Corollary 2 solver.
type Diameter2Result struct {
	Labeling labeling.Labeling
	Span     int
	// Paths is the partition into paths (of G if p ≤ q, of the
	// complement if p > q) that realizes the span: a minimum one wherever
	// SolveDiameter2's span is exact.
	Paths [][]int
	// OnComplement reports which graph the partition lives on.
	OnComplement bool
}

// SolveDiameter2 solves L(p,q)-LABELING on a diameter-≤2 graph via
// PARTITION INTO PATHS (Corollary 2):
//
//	λ = (n−1)·min(p,q) + |q−p| · (s−1),
//
// where s is the minimum number of paths partitioning G (p ≤ q) or its
// complement Ḡ (p > q). The returned labeling is built by concatenating
// the paths along a Hamiltonian path of the reduced weighted graph H:
// consecutive vertices inside a path cost min(p,q), path switches cost
// max(p,q). The paths come from the reduction's cover helper: the greedy
// cover when it meets the matching bound on s, the subset DP for n ≤
// pathpart.ExactMaxN, the cotree cover when the partitioned graph is a
// cograph, and otherwise the greedy cover, whose span is then only an
// upper bound on λ.
func SolveDiameter2(g *graph.Graph, p, q int) (*Diameter2Result, error) {
	if p < 0 || q < 0 {
		return nil, fmt.Errorf("core: negative p or q")
	}
	pv := labeling.Vector{p, q}
	if !pv.SatisfiesReductionCondition() {
		return nil, fmt.Errorf("%w (p=%d, q=%d)", ErrConditionViolated, p, q)
	}
	n := g.N()
	if n == 0 {
		return &Diameter2Result{Labeling: labeling.Labeling{}}, nil
	}
	diam, connected := g.Diameter()
	if !connected {
		return nil, ErrDisconnected
	}
	if diam > 2 {
		return nil, fmt.Errorf("%w (diameter %d > 2)", ErrDiameterExceedsK, diam)
	}
	// Partition host: paths of weight-min edges. For p ≤ q the cheap edges
	// are the distance-1 pairs (edges of G); for p > q they are the
	// distance-2 pairs (edges of Ḡ).
	host := g
	onComp := false
	lo, hi := p, q
	if p > q {
		host = g.Complement()
		onComp = true
		lo, hi = q, p
	}
	paths, _, err := coverPaths(host, pathCoverBound(host))
	if err != nil {
		return nil, err
	}
	span := (n-1)*lo + (hi-lo)*(len(paths)-1)

	// Build the labeling: concatenate paths; consecutive labels advance by
	// lo within a path and hi across path boundaries. Degenerate case
	// lo == hi == 0 gives the all-zero labeling.
	lab := make(labeling.Labeling, n)
	acc := 0
	first := true
	for _, path := range paths {
		for i, v := range path {
			if first {
				first = false
			} else if i == 0 {
				acc += hi
			} else {
				acc += lo
			}
			lab[v] = acc
		}
	}
	return &Diameter2Result{Labeling: lab, Span: span, Paths: paths, OnComplement: onComp}, nil
}

// LambdaCograph computes λ_{p,q}(G) exactly for a connected cograph of
// any size (connected cographs have diameter ≤ 2, so Corollary 2
// applies), counting the cotree's minimum path cover
// (pathpart.CographCount) instead of running the 2ⁿ DP. A graph that is
// no cograph is rejected at its first prime node, after the splits above
// it. Only the value is returned; SolveDiameter2 returns a labeling.
func LambdaCograph(g *graph.Graph, p, q int) (int, error) {
	if p < 0 || q < 0 {
		return 0, fmt.Errorf("core: negative p or q")
	}
	pv := labeling.Vector{p, q}
	if !pv.SatisfiesReductionCondition() {
		return 0, fmt.Errorf("%w (p=%d, q=%d)", ErrConditionViolated, p, q)
	}
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	if !g.IsConnected() {
		return 0, ErrDisconnected
	}
	host := g
	lo, hi := p, q
	if p > q {
		host = g.Complement()
		lo, hi = q, p
	}
	s, err := pathpart.CographCount(host)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return (n-1)*lo + (hi-lo)*(s-1), nil
}
