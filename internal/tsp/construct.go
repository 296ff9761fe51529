package tsp

import (
	"context"
	"runtime"
	"sort"
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
	compact := ins.Compact()
	for idx := 1; idx < n; idx++ {
		best, bestW := -1, int64(0)
		if compact {
			drow, lut := ins.distRow(cur), ins.lut
			for v, d := range drow {
				if !visited[v] {
					if w := lut[d]; best == -1 || w < bestW {
						best, bestW = v, w
					}
				}
			}
		} else {
			row := ins.Row(cur)
			for v, w := range row {
				if !visited[v] && (best == -1 || w < bestW) {
					best, bestW = v, w
				}
			}
		}
		visited[best] = true
		tour[idx] = best
		cur = best
	}
}

// NearestNeighborBest runs NearestNeighborFrom from every start vertex in
// parallel and returns the cheapest resulting path.
func NearestNeighborBest(ins *Instance) (Tour, int64) {
	t, c, _ := nearestNeighborBest(context.Background(), ins)
	return t, c
}

// nearestNeighborBest is NearestNeighborBest with a cancellation
// checkpoint between start vertices; at least one start is always
// completed, so a valid tour comes back even under an expired context. It
// additionally reports how many starts completed. Start vertices are
// claimed with one atomic add per start (no mutex), and each worker reuses
// a single tour/visited buffer pair across all its starts.
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
		tour Tour
		cost int64
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
			bestC := int64(-1)
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
				if bestC < 0 || c < bestC {
					if best == nil {
						best = make(Tour, n)
					}
					copy(best, cur)
					bestC = c
				}
				if canceled(ctx) {
					break
				}
			}
			if bestC >= 0 {
				results <- result{best, bestC}
			}
			started.Add(done)
		}()
	}
	wg.Wait()
	close(results)
	var best Tour
	bestC := int64(-1)
	for r := range results {
		if bestC < 0 || r.cost < bestC {
			best, bestC = r.tour, r.cost
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
// Edges are considered in (weight, u, v) order. Compact instances reach
// that order by a counting sort over the ≤k weight classes — O(n²) total,
// no comparison sort; dense instances sort explicitly. All sweep state
// (edge list, degrees, adjacency, union-finds) is pooled.
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
func GreedyEdgePathMST(ins *Instance) (Tour, int64) {
	n := ins.n
	if n <= 1 {
		return identity(n), 0
	}
	sc := getGreedyScratch(n, ins.Classes())
	defer putGreedyScratch(sc)
	edges := sc.edges
	if ins.Compact() {
		// Counting sort by weight-class rank. Scanning (i,j) in lex order
		// makes each class bucket lex-sorted, and ranks ascend by weight,
		// so the filled edge list is exactly in (weight, u, v) order.
		classOf, cnt := ins.classOf, sc.cnt
		for i := 0; i < n; i++ {
			drow := ins.distRow(i)
			for j := i + 1; j < n; j++ {
				cnt[classOf[drow[j]]+1]++
			}
		}
		for c := 2; c < len(cnt); c++ {
			cnt[c] += cnt[c-1]
		}
		lut := ins.lut
		for i := 0; i < n; i++ {
			drow := ins.distRow(i)
			for j := i + 1; j < n; j++ {
				c := classOf[drow[j]]
				edges[cnt[c]] = greedyEdge{lut[drow[j]], packUV(i, j)}
				cnt[c]++
			}
		}
	} else {
		e := 0
		for i := 0; i < n; i++ {
			row := ins.Row(i)
			for j := i + 1; j < n; j++ {
				edges[e] = greedyEdge{row[j], packUV(i, j)}
				e++
			}
		}
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].w != edges[b].w {
				return edges[a].w < edges[b].w
			}
			return edges[a].uv < edges[b].uv
		})
	}
	deg, adj, d, kd := sc.deg, sc.adj, &sc.d, &sc.kruskal
	taken, spanned := 0, 0
	var mst int64
	for _, e := range edges {
		if taken == n-1 {
			break
		}
		u, v := e.split()
		if spanned < n-1 && kd.Union(u, v) {
			mst += e.w
			spanned++
		}
		if deg[u] >= 2 || deg[v] >= 2 || d.Same(u, v) {
			continue
		}
		d.Union(u, v)
		adj[u][deg[u]] = int32(v)
		adj[v][deg[v]] = int32(u)
		deg[u]++
		deg[v]++
		taken++
	}
	// Walk the single path from one endpoint.
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
	return tour, mst
}
