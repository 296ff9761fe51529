package tsp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"lpltsp/internal/rng"
)

// ChainedOptions configures the chained local-search heuristic.
type ChainedOptions struct {
	// Restarts is the number of independent chains (each from its own
	// construction). Default: GOMAXPROCS.
	Restarts int
	// Kicks is the number of double-bridge perturbations per chain.
	// Default: 40.
	Kicks int
	// Seed seeds the perturbation RNG. Chains derive independent streams.
	Seed uint64
}

func (o *ChainedOptions) defaults() ChainedOptions {
	d := ChainedOptions{Restarts: runtime.GOMAXPROCS(0), Kicks: 40, Seed: 1}
	if o == nil {
		return d
	}
	if o.Restarts > 0 {
		d.Restarts = o.Restarts
	}
	if o.Kicks > 0 {
		d.Kicks = o.Kicks
	}
	if o.Seed != 0 {
		d.Seed = o.Seed
	}
	return d
}

// ChainedLocalSearch is the library's stand-in for chained Lin–Kernighan:
// greedy-edge construction, 2-opt + Or-opt to a local optimum, then
// repeated double-bridge kicks with re-optimization, keeping the best path
// found. Chains run in parallel; the overall best is returned.
func ChainedLocalSearch(ins *Instance, opts *ChainedOptions) (Tour, int64) {
	t, c, _ := chainedLocalSearch(context.Background(), ins, opts)
	return t, c
}

// chainedLocalSearch is the anytime form of ChainedLocalSearch: chains
// check ctx between kicks (and the inner sweeps check it between passes),
// so after cancellation the best tour found so far is returned promptly.
// Even with an already-expired context a valid construction tour comes
// back. Among equal-cost chains the lowest-numbered wins, so the tour does
// not depend on which chain finished first. It returns the best tour, its
// cost, and the number of chains that ran to completion (== o.Restarts
// when nothing was cut short, which is how the engine distinguishes a
// truncated run from a deadline that fired just after convergence).
func chainedLocalSearch(ctx context.Context, ins *Instance, opts *ChainedOptions) (Tour, int64, int64) {
	o := opts.defaults()
	n := ins.n
	if n <= 3 {
		t, _, _ := HeldKarpPath(ins)
		return t, ins.PathCost(t), int64(o.Restarts)
	}
	if canceled(ctx) {
		// Deadline already blown: hand back the cheapest construction so
		// the caller still gets an anytime result promptly. (Greedy-edge
		// would sweep the whole matrix — too much work past a deadline.)
		t := NearestNeighborFrom(ins, 0)
		return t, ins.PathCost(t), 0
	}
	root := rng.New(o.Seed)
	seeds := make([]*rng.RNG, o.Restarts)
	for i := range seeds {
		seeds[i] = root.Split()
	}

	type result struct {
		tour     Tour
		cost     int64
		chain    int
		finished bool
	}
	results := make(chan result, o.Restarts)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > o.Restarts {
		workers = o.Restarts
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker arena: one double-bridge rebuild buffer serves
			// every kick of every chain this worker runs.
			bridge := make(Tour, n)
			for {
				chain := int(next.Add(1) - 1)
				if chain >= o.Restarts || canceled(ctx) {
					return
				}
				r := seeds[chain]
				var t Tour
				if chain == 0 {
					t = GreedyEdgePath(ins)
				} else if chain == 1 {
					t, _, _ = nearestNeighborBest(ctx, ins)
				} else {
					t = Tour(r.Perm(n))
				}
				// Exhaustive 2-opt on small instances; neighbor-list
				// 2-opt with don't-look bits once O(n²) sweeps start to
				// dominate. Reports whether every descent converged.
				optimize := func(tr Tour) bool {
					var ok1, ok2 bool
					if n <= 160 {
						_, ok1 = twoOptPath(ctx, ins, tr)
					} else {
						_, ok1 = twoOptPathFast(ctx, ins, tr, 12)
					}
					_, ok2 = orOptPath(ctx, ins, tr)
					return ok1 && ok2
				}
				finished := optimize(t)
				best := t.Clone()
				bestC := ins.PathCost(best)
				cur := t
				for kick := 0; kick < o.Kicks; kick++ {
					if canceled(ctx) {
						finished = false
						break
					}
					doubleBridge(cur, r, bridge)
					if !optimize(cur) {
						finished = false
					}
					c := ins.PathCost(cur)
					if c < bestC {
						bestC = c
						copy(best, cur)
					} else {
						copy(cur, best) // restart kick from the best
					}
				}
				results <- result{best, bestC, chain, finished}
			}
		}()
	}
	wg.Wait()
	close(results)
	var best Tour
	bestC, bestChain := int64(-1), 0
	var completed int64
	for res := range results {
		if res.finished {
			completed++
		}
		if bestC < 0 || res.cost < bestC || (res.cost == bestC && res.chain < bestChain) {
			best, bestC, bestChain = res.tour, res.cost, res.chain
		}
	}
	if best == nil {
		// All chains were cancelled before producing a tour.
		best = NearestNeighborFrom(ins, 0)
		bestC = ins.PathCost(best)
	}
	return best, bestC, completed
}

// doubleBridge applies the classic 4-opt double-bridge perturbation adapted
// to the path objective: the tour is cut into four consecutive segments
// A B C D and reassembled as A C B D. buf is an n-sized rebuild buffer
// owned by the caller (reused across kicks).
func doubleBridge(t Tour, r *rng.RNG, buf Tour) {
	n := len(t)
	if n < 8 {
		// Tiny tours: swap two random vertices instead.
		i, j := r.Intn(n), r.Intn(n)
		t[i], t[j] = t[j], t[i]
		return
	}
	// 1 ≤ p1 < p2 < p3 < n
	p1 := 1 + r.Intn(n-3)
	p2 := p1 + 1 + r.Intn(n-p1-2)
	p3 := p2 + 1 + r.Intn(n-p2-1)
	out := buf[:0]
	out = append(out, t[:p1]...)
	out = append(out, t[p2:p3]...)
	out = append(out, t[p1:p2]...)
	out = append(out, t[p3:]...)
	copy(t, out)
}
