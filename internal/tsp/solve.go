package tsp

import "context"

// Algorithm names a path-TSP solving strategy. Every Algorithm constant
// below is backed by an Engine in the fixed engine table (engine.go), and
// dispatch goes through Lookup: Solve, the core portfolio and the CLIs
// pick engines by name from the set Algorithms lists.
type Algorithm string

const (
	// AlgoExact picks Held–Karp for n ≤ HeldKarpMaxN, else branch and
	// bound for n ≤ BnBMaxN, else errors.
	AlgoExact Algorithm = "exact"
	// AlgoHeldKarp forces the O(2ⁿn²) dynamic program.
	AlgoHeldKarp Algorithm = "heldkarp"
	// AlgoBnB forces branch and bound (anytime: yields its incumbent on
	// deadline).
	AlgoBnB Algorithm = "bnb"
	// AlgoChristofides is the 1.5-approximation pipeline (path variant).
	AlgoChristofides Algorithm = "christofides"
	// AlgoChained is the chained local-search heuristic (LK stand-in;
	// anytime).
	AlgoChained Algorithm = "chained"
	// AlgoTwoOpt is greedy-edge construction plus 2-opt + Or-opt.
	AlgoTwoOpt Algorithm = "2opt"
	// AlgoThreeOpt is AlgoTwoOpt plus a final 3-opt polishing pass.
	AlgoThreeOpt Algorithm = "3opt"
	// AlgoNearestNeighbor is multi-start nearest neighbor only.
	AlgoNearestNeighbor Algorithm = "nn"
	// AlgoGreedyEdge is greedy edge construction only.
	AlgoGreedyEdge Algorithm = "greedy"
)

// SolveOptions tunes Solve and the engine factories.
type SolveOptions struct {
	// Chained configures AlgoChained (and the branch-and-bound warm start).
	Chained *ChainedOptions
}

// Solve computes a Hamiltonian path of ins with the requested algorithm
// and returns the path and its cost. Exact algorithms return a guaranteed
// optimum; heuristics return their best-found path. It is the
// context-free form of SolveContext.
func Solve(ins *Instance, algo Algorithm, opts *SolveOptions) (Tour, int64, error) {
	t, st, err := SolveContext(context.Background(), ins, algo, opts)
	if err != nil {
		return nil, 0, err
	}
	return t, st.Cost, nil
}

// SolveContext resolves algo through the engine table and solves ins
// under ctx. Cancellation is cooperative: anytime engines
// (branch and bound, chained, the local-search family) return their best
// incumbent with Stats.Truncated set; engines without an incumbent return
// ctx.Err().
func SolveContext(ctx context.Context, ins *Instance, algo Algorithm, opts *SolveOptions) (Tour, Stats, error) {
	if ins.n == 0 {
		return Tour{}, Stats{Optimal: true}, nil
	}
	eng, err := New(algo, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return eng.Solve(ctx, ins)
}
