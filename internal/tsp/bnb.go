package tsp

import (
	"context"
	"fmt"
	"sync"

	"lpltsp/internal/mst"
)

// BnBMaxN bounds the branch-and-bound solver; beyond it the search tree is
// impractical without stronger bounding machinery.
const BnBMaxN = 36

// branchAndBoundPath solves PATH TSP with free endpoints exactly by
// depth-first branch and bound. The lower bound for a partial path is its
// cost plus an MST over the unvisited vertices together with the cheapest
// connection from the current endpoint; the initial upper bound comes from
// the chained heuristic (warm tunes it). It extends the exact range past
// Held–Karp's memory limit (n ≤ BnBMaxN instead of n ≤ HeldKarpMaxN).
//
// The search is anytime: when ctx is cancelled mid-search it stops
// promptly and returns the incumbent tour (initially the warm start) with
// Stats.Truncated set instead of erroring. Stats.Optimal is set only when
// the search tree was exhausted.
func branchAndBoundPath(ctx context.Context, ins *Instance, warm *ChainedOptions) (Tour, Stats, error) {
	n := ins.n
	if n > BnBMaxN {
		return nil, Stats{}, fmt.Errorf("tsp: branch and bound limited to n <= %d, got %d", BnBMaxN, n)
	}
	if n <= 3 {
		t, c, err := heldKarp(ctx, ins)
		if err != nil {
			if ctx.Err() != nil {
				// Honor the anytime contract even here: any permutation
				// of ≤ 3 vertices is a valid incumbent.
				t = identity(n)
				return t, Stats{Cost: ins.PathCost(t), Truncated: true}, nil
			}
			return nil, Stats{}, err
		}
		return t, Stats{Cost: c, Optimal: true}, nil
	}
	// The warm start exists only to seed the upper bound; unless the
	// caller explicitly tuned the chained engine (nonzero restarts/kicks),
	// use a deliberately light configuration — full chained defaults
	// (GOMAXPROCS chains) can dominate the n ≤ 36 search they prime.
	if warm == nil || (warm.Restarts == 0 && warm.Kicks == 0) {
		seed := uint64(12345)
		if warm != nil && warm.Seed != 0 {
			seed = warm.Seed
		}
		warm = &ChainedOptions{Restarts: 4, Kicks: 30, Seed: seed}
	}
	ub, ubCost, _ := chainedLocalSearch(ctx, ins, warm)
	s := getBnBState(n)
	defer putBnBState(s)
	s.ctx = ctx
	s.ins = ins
	s.best = ub.Clone()
	s.bestC = ubCost
	// Free endpoints: try each start vertex. Symmetry halves the work
	// (a path and its reverse have equal cost), so only starts with
	// index ≤ the other endpoint need exploring; simplest correct pruning
	// is to try all starts — the bound prunes aggressively anyway.
	for start := 0; start < n && !s.stopped; start++ {
		s.cur = append(s.cur[:0], start)
		s.used[start] = true
		s.dfs(start, 0)
		s.used[start] = false
	}
	return s.best, Stats{
		Cost:      s.bestC,
		Optimal:   !s.stopped,
		Truncated: s.stopped,
		Nodes:     s.nodes,
	}, nil
}

type bnbState struct {
	ctx     context.Context
	ins     *Instance
	best    Tour
	bestC   int64
	cur     Tour
	used    []bool
	nodes   int64
	stopped bool

	// Pooled per-node scratch: one branching-order slab per search depth,
	// a class-counting buffer, the lower bound's vertex list, and Prim's
	// working arrays. These make the search tree allocation-free (the
	// dominant engine cost past Held–Karp sizes).
	orderBuf []int32
	cnt      []int32
	rest     []int
	prim     mst.PrimScratch
}

var bnbPool = sync.Pool{New: func() any { return new(bnbState) }}

func getBnBState(n int) *bnbState {
	s := bnbPool.Get().(*bnbState)
	if cap(s.used) < n {
		s.used = make([]bool, n)
		s.orderBuf = make([]int32, n*n)
		s.rest = make([]int, n)
		s.cur = make(Tour, 0, n)
	}
	s.used = s.used[:n]
	for i := range s.used {
		s.used[i] = false
	}
	s.orderBuf = s.orderBuf[:n*n]
	s.rest = s.rest[:n]
	s.cur = s.cur[:0]
	s.nodes = 0
	s.stopped = false
	return s
}

func putBnBState(s *bnbState) {
	// Drop references that would otherwise outlive the solve in the pool.
	s.ctx = nil
	s.ins = nil
	s.best = nil
	bnbPool.Put(s)
}

// ctxCheckInterval is how many expanded nodes pass between cooperative
// cancellation checks; a power of two so the test is a mask.
const ctxCheckInterval = 1024

func (s *bnbState) dfs(last int, cost int64) {
	if s.stopped {
		return
	}
	s.nodes++
	if s.nodes&(ctxCheckInterval-1) == 0 && canceled(s.ctx) {
		s.stopped = true
		return
	}
	n := s.ins.n
	if len(s.cur) == n {
		if cost < s.bestC {
			s.bestC = cost
			copy(s.best, s.cur)
		}
		return
	}
	if cost+s.lowerBound(last) >= s.bestC {
		return
	}
	// Branch on unvisited vertices in (weight, index) order by a counting
	// pass over the weight classes, using one pooled order slab per depth
	// (the recursion below reuses deeper slabs).
	depth := len(s.cur)
	order := s.orderBuf[depth*n : (depth+1)*n-depth]
	drow, classOf := s.ins.distRow(last), s.ins.classOf
	classes := len(s.ins.classW)
	if cap(s.cnt) < classes+1 {
		s.cnt = make([]int32, classes+1)
	}
	cnt := s.cnt[:classes+1]
	for c := range cnt {
		cnt[c] = 0
	}
	for v := 0; v < n; v++ {
		if !s.used[v] {
			cnt[classOf[drow[v]]+1]++
		}
	}
	for c := 2; c < len(cnt); c++ {
		cnt[c] += cnt[c-1]
	}
	for v := 0; v < n; v++ {
		if !s.used[v] {
			c := classOf[drow[v]]
			order[cnt[c]] = int32(v)
			cnt[c]++
		}
	}
	for _, v32 := range order {
		if s.stopped {
			return
		}
		v := int(v32)
		s.used[v] = true
		s.cur = append(s.cur, v)
		s.dfs(v, cost+s.ins.Weight(last, v))
		s.cur = s.cur[:len(s.cur)-1]
		s.used[v] = false
	}
}

// lowerBound returns a lower bound on completing the path from `last`
// through all unvisited vertices: MST over unvisited ∪ {last} (any
// completion is a spanning connected subgraph of that set). The vertex
// list and Prim's arrays come from the pooled state — the bound runs once
// per node, so it must not allocate.
func (s *bnbState) lowerBound(last int) int64 {
	n := s.ins.n
	rest := s.rest[:0]
	rest = append(rest, last)
	for v := 0; v < n; v++ {
		if !s.used[v] {
			rest = append(rest, v)
		}
	}
	if len(rest) <= 1 {
		return 0
	}
	return s.prim.Total(len(rest), func(i, j int) int64 {
		return s.ins.Weight(rest[i], rest[j])
	})
}
