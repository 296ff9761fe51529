package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lpltsp/internal/fault"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/tsp"
)

// DefaultPortfolioEngines returns the engine roster Portfolio races when
// the caller does not name one: the exact engine (when the instance is
// within its reach) alongside the approximation and the anytime
// heuristics, so the race always has a fast finisher for the deadline
// case and ends as soon as optimality is proven — by the exact engine or
// by any racer whose path meets the spanning-tree bound.
func DefaultPortfolioEngines(n int) []tsp.Algorithm {
	if n <= tsp.BnBMaxN {
		return []tsp.Algorithm{tsp.AlgoExact, tsp.AlgoChristofides, tsp.AlgoChained, tsp.AlgoTwoOpt}
	}
	return []tsp.Algorithm{tsp.AlgoChristofides, tsp.AlgoChained, tsp.AlgoTwoOpt, tsp.AlgoNearestNeighbor}
}

// Portfolio solves L(p)-LABELING by racing several TSP engines over one
// shared reduction. All engines run concurrently under a child context;
// the first finisher proven optimal cancels the rest — an exact engine
// that completed, or any engine whose path meets the reduction's
// spanning-tree bound (Reduction.LowerBound) — and when the parent
// context expires the anytime engines surrender their incumbents. The
// best valid labeling across all finishers is returned, and it is always
// re-verified against the distance matrix before being handed out. All
// spawned goroutines are joined before Portfolio returns, so a cancelled
// race leaks nothing.
//
// Engines that error (size limits, cancellation without an incumbent) are
// dropped from the race; an error is returned only when no engine produced
// a labeling at all.
//
// All racers share one compact reduction: the instance is a read-only
// weight-class view over the single distance matrix computed by
// ReduceContext (see the package comment's memory model), so racing k
// engines costs one matrix, not k copies, and each engine's scratch comes
// from the shared pools in internal/tsp.
//
// Portfolio races are always verified, so their results are memoized in
// the solve cache: repeating a race over an identical instance (and
// roster) returns the cached winner with Result.CacheHit set.
//
// Portfolio is a direct reduction entry point: it keeps the typed
// precondition errors (ErrDisconnected and friends) rather than routing
// through the method planner — use Solve for planner routing.
func Portfolio(ctx context.Context, g *graph.Graph, p labeling.Vector, engines ...tsp.Algorithm) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Keyed as the forced-reduction solve this entry point semantically
	// is (Method set), so it can never share an entry with a planner
	// solve that merely pinned Algorithm=portfolio and was then routed
	// elsewhere (e.g. a disconnected input decomposed into components —
	// serving that here would skip Portfolio's typed errors). The same
	// front door as Solve also coalesces concurrent identical races:
	// N simultaneous Portfolio calls on one instance run one race.
	cacheOpts := &Options{Method: MethodReduction, Algorithm: AlgoPortfolio, Engines: engines, Verify: true}
	key := cacheKeyFor(g, p, cacheOpts)
	return defaultSolveCache.solveCoalesced(ctx, key, func(fctx context.Context) (*Result, error) {
		t0 := time.Now()
		red, err := ReduceContext(fctx, g, p)
		if err != nil {
			return nil, err
		}
		res, err := portfolioOverReduction(fctx, defaultSolveCache, red, nil, engines)
		if err != nil {
			return nil, err
		}
		res.Method = MethodReduction
		res.ReduceTime = res.ReduceTime + time.Since(t0) - res.SolveTime
		return res, nil
	})
}

// portfolioOverReduction races the roster over a prebuilt reduction and
// returns the best verified labeling; SolveTime covers the race, and the
// caller owns ReduceTime. It is the portfolio body shared by the public
// Portfolio entry point and the reduction method's AlgoPortfolio dispatch.
// c is the cache the solve runs through: a racer panic counts there even
// when another racer wins the race.
func portfolioOverReduction(ctx context.Context, c *SolveCache, red *Reduction, chained *tsp.ChainedOptions, engines []tsp.Algorithm) (*Result, error) {
	t1 := time.Now()
	if len(engines) == 0 {
		engines = DefaultPortfolioEngines(red.G.N())
	}
	lb := red.LowerBound()

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type entry struct {
		algo  tsp.Algorithm
		tour  tsp.Tour
		stats tsp.Stats
		err   error
	}
	results := make(chan entry, len(engines))
	var wg sync.WaitGroup
	for _, algo := range engines {
		wg.Add(1)
		go func(algo tsp.Algorithm) {
			defer wg.Done()
			// A panicking racer loses the race instead of killing the
			// process: the recover-path send is safe because it runs only
			// when the panic preempted the normal send, and the channel's
			// len(engines) buffer means neither send ever blocks.
			defer func() {
				if v := recover(); v != nil {
					results <- entry{algo: algo, err: c.capturePanic(MethodReduction, v)}
				}
			}()
			fault.Visit(raceCtx, fault.SiteCorePortfolio)
			tour, stats, err := tsp.SolveContext(raceCtx, red.Instance, algo, &tsp.SolveOptions{Chained: chained})
			results <- entry{algo: algo, tour: tour, stats: stats, err: err}
		}(algo)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var best *entry
	var engineErrs []error
	approxFinished := false
	for e := range results {
		if e.err != nil {
			engineErrs = append(engineErrs, fmt.Errorf("core: portfolio engine %q: %w", e.algo, e.err))
			continue
		}
		if e.algo == tsp.AlgoChristofides && !e.stats.Truncated {
			// The 1.5-approximation completed, so the race minimum — and
			// hence the winner — inherits its factor guarantee.
			approxFinished = true
		}
		if e.stats.Cost == lb {
			// A path as light as a spanning tree is optimal, whichever
			// engine found it and however early it stopped.
			e.stats.Optimal, e.stats.Truncated = true, false
		}
		e := e
		if best == nil || e.stats.Cost < best.stats.Cost ||
			(e.stats.Cost == best.stats.Cost && e.stats.Optimal && !best.stats.Optimal) {
			best = &e
		}
		if e.stats.Optimal && !e.stats.Truncated {
			// Proven optimum: nothing can beat it, stop the others. Keep
			// draining so every goroutine is joined before returning.
			cancel()
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: portfolio produced no labeling: %w", err)
		}
		if len(engineErrs) > 0 {
			return nil, errors.Join(engineErrs...)
		}
		return nil, fmt.Errorf("core: portfolio ran no engines")
	}
	t2 := time.Now()
	// The race mixes engines of very different trust levels, so the winner
	// is always verified, not just when the caller asks.
	res, err := red.resultFromTour(best.tour, best.algo, best.stats, true)
	if err != nil {
		return nil, err
	}
	res.Algorithm = AlgoPortfolio
	res.Winner = best.algo
	res.SolveTime = t2.Sub(t1)
	switch {
	case res.Exact:
		res.Approx = 1
	case approxFinished:
		res.Approx = 1.5
	}
	return res, nil
}
