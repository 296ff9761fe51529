package tsp

import (
	"context"
	"fmt"
)

// Stats describes how an engine run ended.
type Stats struct {
	// Cost is the path weight of the returned tour.
	Cost int64
	// Optimal reports that the tour is provably optimal (exact engine ran
	// to completion).
	Optimal bool
	// Truncated reports that the engine stopped early because its context
	// was cancelled or its deadline expired, returning its best-so-far
	// (anytime) result rather than a finished computation.
	Truncated bool
	// Nodes is an engine-specific work counter: branch-and-bound nodes
	// expanded, chains completed, restarts finished. Zero when an engine
	// does not track one.
	Nodes int64
}

// Engine is a free-endpoint Hamiltonian path solver. Implementations
// must honor context cancellation cooperatively: after ctx is done an
// engine returns promptly, either with its best-so-far tour
// (Stats.Truncated set) or with ctx.Err() when it has no incumbent to
// offer. Engines must be safe for concurrent use by multiple goroutines on
// distinct or shared instances (instances are read-only during solving),
// which is what lets the core portfolio race them.
type Engine interface {
	// Name returns the engine's table name.
	Name() Algorithm
	// Solve computes a minimum-weight (or best-found) Hamiltonian path of
	// ins.
	Solve(ctx context.Context, ins *Instance) (Tour, Stats, error)
}

// EngineFactory builds an engine configured by opts (which may be nil).
type EngineFactory func(opts *SolveOptions) Engine

// engines is the fixed engine table, in the order Algorithms lists it:
// exact first, constructions last.
var engines = [...]struct {
	name    Algorithm
	factory EngineFactory
}{
	{AlgoExact, func(o *SolveOptions) Engine { return exactEngine{chained(o)} }},
	{AlgoHeldKarp, func(*SolveOptions) Engine { return heldKarpEngine{} }},
	{AlgoBnB, func(o *SolveOptions) Engine { return bnbEngine{chained(o)} }},
	{AlgoChristofides, func(*SolveOptions) Engine { return christofidesEngine{} }},
	{AlgoChained, func(o *SolveOptions) Engine { return chainedEngine{chained(o)} }},
	{AlgoTwoOpt, func(*SolveOptions) Engine { return twoOptEngine{} }},
	{AlgoThreeOpt, func(*SolveOptions) Engine { return threeOptEngine{} }},
	{AlgoNearestNeighbor, func(*SolveOptions) Engine { return nnEngine{} }},
	{AlgoGreedyEdge, func(*SolveOptions) Engine { return greedyEngine{} }},
}

// Lookup returns the factory of the named engine.
func Lookup(name Algorithm) (EngineFactory, error) {
	for _, e := range engines {
		if e.name == name {
			return e.factory, nil
		}
	}
	return nil, fmt.Errorf("tsp: unknown algorithm %q", name)
}

// New instantiates the named engine with the given options (opts may be
// nil for defaults).
func New(name Algorithm, opts *SolveOptions) (Engine, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(opts), nil
}

// Algorithms lists every engine name in table order, which is stable
// (exact first, constructions last).
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(engines))
	for i, e := range engines {
		out[i] = e.name
	}
	return out
}

// canceled reports whether ctx is already done, without blocking. Engines
// use it as their cooperative cancellation checkpoint.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func chained(o *SolveOptions) *ChainedOptions {
	if o == nil {
		return nil
	}
	return o.Chained
}

// exactEngine solves with Held–Karp within its memory budget and branch
// and bound beyond it. Both regimes are anytime: a deadline yields an
// incumbent instead of an error.
type exactEngine struct{ chained *ChainedOptions }

func (exactEngine) Name() Algorithm { return AlgoExact }

func (e exactEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	if ins.n <= HeldKarpMaxN {
		t, st, err := heldKarpEngine{}.Solve(ctx, ins)
		if err != nil && ctx.Err() != nil {
			// The DP was cancelled before completing. Keep the exact
			// engine uniformly anytime across instance sizes (its larger
			// branch-and-bound regime yields an incumbent on deadline) by
			// surrendering a cheap construction tour instead of failing.
			t = NearestNeighborFrom(ins, 0)
			return t, Stats{Cost: ins.PathCost(t), Truncated: true}, nil
		}
		return t, st, err
	}
	return bnbEngine{e.chained}.Solve(ctx, ins)
}

type heldKarpEngine struct{}

func (heldKarpEngine) Name() Algorithm { return AlgoHeldKarp }

func (heldKarpEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	t, c, err := heldKarp(ctx, ins)
	if err != nil {
		return nil, Stats{}, err
	}
	return t, Stats{Cost: c, Optimal: true}, nil
}

type bnbEngine struct{ chained *ChainedOptions }

func (bnbEngine) Name() Algorithm { return AlgoBnB }

func (e bnbEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	return branchAndBoundPath(ctx, ins, e.chained)
}

type christofidesEngine struct{}

func (christofidesEngine) Name() Algorithm { return AlgoChristofides }

func (christofidesEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	t, c, err := christofidesPath(ctx, ins)
	if err != nil {
		return nil, Stats{}, err
	}
	return t, Stats{Cost: c}, nil
}

type chainedEngine struct{ opts *ChainedOptions }

func (chainedEngine) Name() Algorithm { return AlgoChained }

func (e chainedEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	t, c, chains := chainedLocalSearch(ctx, ins, e.opts)
	want := int64(e.opts.defaults().Restarts)
	return t, Stats{Cost: c, Truncated: chains < want, Nodes: chains}, nil
}

type twoOptEngine struct{}

func (twoOptEngine) Name() Algorithm { return AlgoTwoOpt }

func (twoOptEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	if canceled(ctx) {
		t := NearestNeighborFrom(ins, 0)
		return t, Stats{Cost: ins.PathCost(t), Truncated: true}, nil
	}
	t := GreedyEdgePath(ins)
	_, ok1 := twoOptPath(ctx, ins, t)
	_, ok2 := orOptPath(ctx, ins, t)
	return t, Stats{Cost: ins.PathCost(t), Truncated: !(ok1 && ok2)}, nil
}

// threeOptEngine is the polishing variant: the 2-opt/Or-opt pipeline plus a
// final 3-opt pass (segment exchange and double reversal), the deepest
// local-search neighborhood in the family. O(n³) per sweep — intended for
// moderate n or as a portfolio member under a deadline.
type threeOptEngine struct{}

func (threeOptEngine) Name() Algorithm { return AlgoThreeOpt }

func (threeOptEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	if canceled(ctx) {
		t := NearestNeighborFrom(ins, 0)
		return t, Stats{Cost: ins.PathCost(t), Truncated: true}, nil
	}
	t := GreedyEdgePath(ins)
	_, ok1 := twoOptPath(ctx, ins, t)
	_, ok2 := orOptPath(ctx, ins, t)
	_, ok3 := threeOptPath(ctx, ins, t)
	return t, Stats{Cost: ins.PathCost(t), Truncated: !(ok1 && ok2 && ok3)}, nil
}

type nnEngine struct{}

func (nnEngine) Name() Algorithm { return AlgoNearestNeighbor }

func (nnEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	t, c, starts := nearestNeighborBest(ctx, ins)
	return t, Stats{Cost: c, Truncated: starts < int64(ins.n), Nodes: starts}, nil
}

type greedyEngine struct{}

func (greedyEngine) Name() Algorithm { return AlgoGreedyEdge }

func (greedyEngine) Solve(ctx context.Context, ins *Instance) (Tour, Stats, error) {
	t := GreedyEdgePath(ins)
	return t, Stats{Cost: ins.PathCost(t)}, nil
}
