package tsp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// NearestNeighborFrom builds a Hamiltonian path greedily from start.
func NearestNeighborFrom(ins *Instance, start int) Tour {
	tour := make(Tour, ins.n)
	sc := getVisited(ins.n)
	nearestNeighborInto(ins, start, tour, sc.visited)
	putVisited(sc)
	return tour
}

// nearestNeighborInto writes the greedy path from start into tour (length
// n). visited must be all-false on entry and is left dirty — callers that
// loop over starts clear it between runs instead of reallocating.
func nearestNeighborInto(ins *Instance, start int, tour Tour, visited []bool) {
	n := ins.n
	if n == 0 {
		return
	}
	cur := start
	visited[cur] = true
	tour[0] = cur
	lut := ins.lut
	for idx := 1; idx < n; idx++ {
		best, bestW := -1, int64(0)
		for v, d := range ins.distRow(cur) {
			if !visited[v] {
				if w := lut[d]; best == -1 || w < bestW {
					best, bestW = v, w
				}
			}
		}
		visited[best] = true
		tour[idx] = best
		cur = best
	}
}

// nearestNeighborBest runs NearestNeighborFrom from every start vertex in
// parallel and returns the cheapest resulting path, the one from the
// lowest start among equal costs, so the tour does not depend on which
// worker finished first. A cancellation checkpoint sits between start
// vertices; at least one start is always completed, so a valid tour comes
// back even under an expired context. It additionally reports how many
// starts completed. Start vertices are claimed with one atomic add per
// start (no mutex), and each worker reuses a single tour/visited buffer
// pair across all its starts.
func nearestNeighborBest(ctx context.Context, ins *Instance) (Tour, int64, int64) {
	n := ins.n
	if n == 0 {
		return Tour{}, 0, 0
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	type result struct {
		tour  Tour
		cost  int64
		start int
	}
	results := make(chan result, workers)
	var next, started atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getVisited(n)
			defer putVisited(sc)
			cur := make(Tour, n)
			var best Tour
			bestC, bestS := int64(-1), 0
			var done int64
			for {
				s := int(next.Add(1) - 1)
				if s >= n {
					break
				}
				for i := range sc.visited {
					sc.visited[i] = false
				}
				nearestNeighborInto(ins, s, cur, sc.visited)
				c := ins.PathCost(cur)
				done++
				// Starts are claimed in increasing order, so the first
				// tie a worker meets has its lowest start.
				if bestC < 0 || c < bestC {
					if best == nil {
						best = make(Tour, n)
					}
					copy(best, cur)
					bestC, bestS = c, s
				}
				if canceled(ctx) {
					break
				}
			}
			if bestC >= 0 {
				results <- result{best, bestC, bestS}
			}
			started.Add(done)
		}()
	}
	wg.Wait()
	close(results)
	var best Tour
	bestC, bestS := int64(-1), 0
	for r := range results {
		if bestC < 0 || r.cost < bestC || (r.cost == bestC && r.start < bestS) {
			best, bestC, bestS = r.tour, r.cost, r.start
		}
	}
	// Every worker completes its first grabbed start before checking ctx,
	// so at least one result always arrives and best is never nil here.
	return best, bestC, started.Load()
}

// GreedyEdgePath builds a Hamiltonian path by repeatedly taking the
// globally cheapest edge whose addition keeps the partial solution a
// disjoint union of simple paths (degree ≤ 2, no cycle). The n-1 accepted
// edges form a single Hamiltonian path.
//
// Edges are considered in (weight, u, v) order: the sweep walks the
// distance matrix once per weight class, lightest first, rows and then
// columns ascending, which is that order with no edge list and no sort.
// All sweep state (degrees, adjacency, union-finds) is pooled.
func GreedyEdgePath(ins *Instance) Tour {
	t, _ := GreedyEdgePathMST(ins)
	return t
}

// GreedyEdgePathMST is GreedyEdgePath that also returns the weight of a
// minimum spanning tree of the instance. Kruskal's algorithm runs on a
// second union-find in the same (weight, u, v) loop and adds no
// iterations: the path forest's edges are a subset of each prefix of the
// order, so at every prefix it has at least as many components as
// Kruskal's forest, and the tree is complete no later than the path.
//
// The sweep stops at the (n−1)-th path edge. Once Kruskal's tree is
// complete, an edge matters only to the path, which rejects every edge at
// a vertex of degree 2: the sweep then skips the row of such a vertex and
// leaves a row as soon as its vertex reaches degree 2. On a one-weight
// instance every path edge after the first row is then found within a few
// columns of its row's start.
func GreedyEdgePathMST(ins *Instance) (Tour, int64) {
	n := ins.n
	if n <= 1 {
		return identity(n), 0
	}
	sc := getGreedyScratch(n)
	defer putGreedyScratch(sc)
	sc.sweepClasses(ins)
	// Walk the single path from one endpoint.
	deg, adj := sc.deg, sc.adj
	start := 0
	for v := 0; v < n; v++ {
		if deg[v] <= 1 {
			start = v
			break
		}
	}
	tour := make(Tour, 0, n)
	prev := int32(-1)
	cur := int32(start)
	for len(tour) < n {
		tour = append(tour, int(cur))
		next := adj[cur][0]
		if next == prev || next == -1 {
			next = adj[cur][1]
		}
		prev, cur = cur, next
		if cur == -1 {
			break
		}
	}
	return tour, sc.mst
}

// sweepClasses offers the instance's edges in (weight, u, v) order:
// one pass per weight class in ascending rank, rows ascending and columns
// j > i ascending within a pass.
func (sc *greedyScratch) sweepClasses(ins *Instance) {
	n, classOf := ins.n, ins.classOf
	for c, w := range ins.classW {
		rank := int32(c)
		for i := 0; i < n-1; i++ {
			if sc.spanned == n-1 && sc.deg[i] >= 2 {
				continue
			}
			drow := ins.distRow(i)
			for j := i + 1; j < n; j++ {
				if classOf[drow[j]] != rank {
					continue
				}
				sc.offer(i, j, w)
				if sc.taken == n-1 {
					return
				}
				if sc.spanned == n-1 && sc.deg[i] >= 2 {
					break
				}
			}
		}
	}
}

// offer hands edge {u,v} of weight w, the next in (weight, u, v) order, to
// both forests: Kruskal's takes it while incomplete and when it joins two
// trees, the path forest when neither end has degree 2 and it closes no
// cycle.
func (sc *greedyScratch) offer(u, v int, w int64) {
	if sc.spanned < len(sc.deg)-1 && sc.kruskal.Union(u, v) {
		sc.mst += w
		sc.spanned++
	}
	if sc.deg[u] >= 2 || sc.deg[v] >= 2 || sc.d.Same(u, v) {
		return
	}
	sc.d.Union(u, v)
	sc.adj[u][sc.deg[u]] = int32(v)
	sc.adj[v][sc.deg[v]] = int32(u)
	sc.deg[u]++
	sc.deg[v]++
	sc.taken++
}
