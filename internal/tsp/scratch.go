package tsp

import (
	"sync"

	"lpltsp/internal/dsu"
)

// Hot-path scratch pooling. Every engine leaf routine (neighbor-list
// construction, 2-opt queues, Or-opt/3-opt segment buffers, greedy edge
// sweeps, the Held–Karp DP layers, branch-and-bound node state) draws its
// working buffers from the package-level pools below instead of allocating
// per call. Batch workers and portfolio racers therefore converge on a
// small steady-state set of buffers: after warm-up, solving an instance
// allocates only its result tour. Pools hand out single structs (not raw
// slices), so Get/Put never re-boxes slice headers.
//
// Invariant: pooled buffers are always fully (re)initialized by their
// consumer before use; nothing relies on pooled contents.

// twoOptScratch backs twoOptPathFast: position index, don't-look bits, the
// wake queue, and the flat neighbor lists.
type twoOptScratch struct {
	pos      []int32
	queue    []int32
	inQueue  []bool
	dontLook []bool
	nbr      []int32 // flat neighbor lists, stride kk
	bucket   []int32 // neighbor-bucketing scratch (compact instances)
	start    []int32 // per-class bucket offsets (compact instances)
}

var twoOptPool = sync.Pool{New: func() any { return new(twoOptScratch) }}

func getTwoOptScratch(n, kk, classes int) *twoOptScratch {
	sc := twoOptPool.Get().(*twoOptScratch)
	if cap(sc.pos) < n {
		sc.pos = make([]int32, n)
		sc.queue = make([]int32, n)
		sc.inQueue = make([]bool, n)
		sc.dontLook = make([]bool, n)
	}
	sc.pos = sc.pos[:n]
	sc.queue = sc.queue[:n]
	sc.inQueue = sc.inQueue[:n]
	sc.dontLook = sc.dontLook[:n]
	if nb := classes * kk; cap(sc.bucket) < nb {
		sc.bucket = make([]int32, nb)
	}
	if cap(sc.nbr) < n*kk {
		sc.nbr = make([]int32, n*kk)
	}
	sc.nbr = sc.nbr[:n*kk]
	if cap(sc.start) < classes+1 {
		sc.start = make([]int32, classes+1)
	}
	sc.start = sc.start[:classes+1]
	return sc
}

func putTwoOptScratch(sc *twoOptScratch) { twoOptPool.Put(sc) }

// segScratch backs the segment-rebuilding moves (Or-opt relocation,
// double-bridge kicks, 3-opt reconnection): one n-sized rebuild buffer and
// two small segment buffers.
type segScratch struct {
	rest []int
	segB []int
	segC []int
}

var segPool = sync.Pool{New: func() any { return new(segScratch) }}

func getSegScratch(n int) *segScratch {
	sc := segPool.Get().(*segScratch)
	if cap(sc.rest) < n {
		sc.rest = make([]int, n)
		sc.segB = make([]int, n)
		sc.segC = make([]int, n)
	}
	sc.rest = sc.rest[:n]
	sc.segB = sc.segB[:n]
	sc.segC = sc.segC[:n]
	return sc
}

func putSegScratch(sc *segScratch) { segPool.Put(sc) }

// visitedScratch backs nearest-neighbor construction.
type visitedScratch struct{ visited []bool }

var visitedPool = sync.Pool{New: func() any { return new(visitedScratch) }}

func getVisited(n int) *visitedScratch {
	sc := visitedPool.Get().(*visitedScratch)
	if cap(sc.visited) < n {
		sc.visited = make([]bool, n)
	}
	sc.visited = sc.visited[:n]
	for i := range sc.visited {
		sc.visited[i] = false
	}
	return sc
}

func putVisited(sc *visitedScratch) { visitedPool.Put(sc) }

// greedyEdge is the edge record of GreedyEdgePath's sweep. uv packs
// (u << 32) | v so the (weight, u, v) tie-break is a two-field compare.
type greedyEdge struct {
	w  int64
	uv uint64
}

func (e greedyEdge) split() (u, v int) { return int(e.uv >> 32), int(uint32(e.uv)) }

func packUV(u, v int) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// greedyScratch backs GreedyEdgePathMST: the edge list (n(n-1)/2 entries,
// by far the largest heuristic allocation), degree counters, path
// adjacency, counting-sort offsets for compact instances, and the
// union-finds of the path forest and of Kruskal's forest.
type greedyScratch struct {
	edges   []greedyEdge
	deg     []int8
	adj     [][2]int32
	cnt     []int32
	d       dsu.DSU
	kruskal dsu.DSU
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

func getGreedyScratch(n, classes int) *greedyScratch {
	sc := greedyPool.Get().(*greedyScratch)
	ne := n * (n - 1) / 2
	if cap(sc.edges) < ne {
		sc.edges = make([]greedyEdge, ne)
	}
	sc.edges = sc.edges[:ne]
	if cap(sc.deg) < n {
		sc.deg = make([]int8, n)
		sc.adj = make([][2]int32, n)
	}
	sc.deg = sc.deg[:n]
	sc.adj = sc.adj[:n]
	for i := 0; i < n; i++ {
		sc.deg[i] = 0
		sc.adj[i] = [2]int32{-1, -1}
	}
	if cap(sc.cnt) < classes+1 {
		sc.cnt = make([]int32, classes+1)
	}
	sc.cnt = sc.cnt[:classes+1]
	for i := range sc.cnt {
		sc.cnt[i] = 0
	}
	sc.d.Reset(n)
	sc.kruskal.Reset(n)
	return sc
}

func putGreedyScratch(sc *greedyScratch) { greedyPool.Put(sc) }

// hkScratch backs the Held–Karp DP: the dp/parent tables (the dominant
// allocation of exact solves, ~2^n·n·5 bytes), the int32 weight matrix,
// and the per-layer mask list. Pooling these is what makes steady-state
// exact batch solving allocation-free; the pool is GC-clearable, so a
// one-off large solve does not pin its tables forever.
type hkScratch struct {
	dp    []int32
	par   []int8
	w32   []int32
	masks []int
}

var hkPool = sync.Pool{New: func() any { return new(hkScratch) }}

func getHKScratch(size, n int) *hkScratch {
	sc := hkPool.Get().(*hkScratch)
	if cap(sc.dp) < size*n {
		sc.dp = make([]int32, size*n)
		sc.par = make([]int8, size*n)
	}
	sc.dp = sc.dp[:size*n]
	sc.par = sc.par[:size*n]
	if cap(sc.w32) < n*n {
		sc.w32 = make([]int32, n*n)
	}
	sc.w32 = sc.w32[:n*n]
	if sc.masks == nil {
		sc.masks = make([]int, 0, 1<<16)
	}
	return sc
}

func putHKScratch(sc *hkScratch) { hkPool.Put(sc) }
