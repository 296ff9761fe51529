package graph

import "math/bits"

// CSR (compressed sparse row) view of a normalized graph: one offsets
// array and one flat neighbors array, so traversals walk two contiguous
// allocations instead of chasing n separately allocated neighbor slices.
// This is the representation the hot paths run on — BFS and the APSP
// kernels (the bit-parallel batch sweep and the scalar BFS; the dominant
// cost of the labeling reduction), plus the degree/neighbor query surface
// — while the per-vertex adjacency lists remain the mutable build
// representation AddEdge appends to.
//
// The view is built lazily on first query of a normalized graph and
// dropped on mutation, exactly like the normalized flag: neighbors appear
// in the same sorted order as the adjacency lists, so every CSR-routed
// traversal is bit-identical to the adjacency-list path it replaced
// (pinned by the equivalence tests in csr_test.go).
type csr struct {
	offsets []int32 // len n+1; neighbors of u are nbrs[offsets[u]:offsets[u+1]]
	nbrs    []int32 // len 2m, concatenated sorted neighbor lists
}

func buildCSR(adj [][]int32) *csr {
	n := len(adj)
	total := 0
	for u := range adj {
		total += len(adj[u])
	}
	c := &csr{offsets: make([]int32, n+1), nbrs: make([]int32, total)}
	pos := int32(0)
	for u := range adj {
		c.offsets[u] = pos
		pos += int32(copy(c.nbrs[pos:], adj[u]))
	}
	c.offsets[n] = pos
	return c
}

func (c *csr) neighbors(u int) []int32 { return c.nbrs[c.offsets[u]:c.offsets[u+1]] }

func (c *csr) degree(u int) int { return int(c.offsets[u+1] - c.offsets[u]) }

// csrData returns the CSR view, building it once per mutation generation.
// The double-checked build shares normMu with Normalize, so concurrent
// queries racing to the first build produce one view; mutation must still
// be exclusive (the usual Graph rule).
func (g *Graph) csrData() *csr {
	if c := g.csrView.Load(); c != nil {
		return c
	}
	g.Normalize()
	g.normMu.Lock()
	defer g.normMu.Unlock()
	if c := g.csrView.Load(); c != nil {
		return c
	}
	c := buildCSR(g.adj)
	g.csrView.Store(c)
	return c
}

// bfsFrom writes BFS distances from src into dist (length n), using queue
// as scratch (length ≥ n), and returns the number of vertices reached and
// the eccentricity of src within its component (the last vertex queued is
// a deepest one, so no rescan is needed). Neighbor order matches the
// sorted adjacency lists, so the produced distances — and the traversal
// order itself — are bit-identical to the adjacency-list BFS.
func (c *csr) bfsFrom(src int, dist []uint16, queue []int32) (reached, depth int) {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue[0] = int32(src)
	head, tail := 0, 1
	off, nb := c.offsets, c.nbrs
	for head < tail {
		u := queue[head]
		head++
		du := dist[u] + 1
		for _, v := range nb[off[u]:off[u+1]] {
			if dist[v] == Unreachable {
				dist[v] = du
				queue[tail] = v
				tail++
			}
		}
	}
	return tail, int(dist[queue[tail-1]])
}

// batchSize is the number of sources one bit-parallel sweep carries: one
// bit of a uint64 mask each.
const batchSize = 64

// sweepStats is what one batch sweep reports: the (source, vertex) pairs
// it resolved, the vertex activations it made, and its deepest level.
type sweepStats struct {
	pairs, activations, depth int
}

// sharesEnough is the sharing rule: whether the batch resolved at least
// minSharing (source, vertex) pairs per vertex activation, enough for the
// sweep to beat scalar BFS on the batches that follow.
func (st sweepStats) sharesEnough() bool { return st.pairs >= minSharing*st.activations }

// sweep is the bit-parallel BFS over the batch of sources lo … lo+w−1,
// w = min(64, n−lo), after Then et al., "The More the Merrier" (VLDB
// 2015). Source lo+i is bit i of three masks per vertex: seen, frontier
// and next. Per level, every active vertex ORs its frontier into its
// neighbours' next masks; every touched vertex then takes
// new = next &^ seen and writes the level into the row of every source in
// new (rows lo … lo+w−1 of the row-major n×n matrix d). Active and touched
// lists keep a level's cost to the vertices it reaches, never a scan of
// all n, so a batch costs O(D·(n+m)) word operations for diameter D. Each
// activation resolves at least one (source, vertex) pair, so the sweep
// never activates more vertices than w scalar BFS runs visit; pairs per
// activation measures how much the sources share.
func (c *csr) sweep(lo int, d []uint16, sc *sweepScratch) sweepStats {
	n := len(c.offsets) - 1
	w := min(batchSize, n-lo)
	seen, front, next := sc.seen, sc.front, sc.next
	clear(seen)
	clear(front)
	clear(next)
	active := sc.active[:0]
	for i := 0; i < w; i++ {
		s := lo + i
		seen[s] = 1 << i
		front[s] = 1 << i
		active = append(active, int32(s))
		d[s*n+s] = 0
	}
	st := sweepStats{pairs: w}
	off, nb := c.offsets, c.nbrs
	base := d[lo*n:]
	// Once every pair is resolved no level can add one, which spares a
	// connected graph the last, fruitless level.
	for level := uint16(1); len(active) > 0 && st.pairs < w*n; level++ {
		st.activations += len(active)
		touched := sc.touched[:0]
		for _, u := range active {
			f := front[u]
			front[u] = 0
			for _, v := range nb[off[u]:off[u+1]] {
				if next[v] == 0 {
					touched = append(touched, v)
				}
				next[v] |= f
			}
		}
		active = active[:0]
		for _, v := range touched {
			nw := next[v] &^ seen[v]
			next[v] = 0
			if nw == 0 {
				continue
			}
			seen[v] |= nw
			front[v] = nw
			active = append(active, v)
			st.pairs += bits.OnesCount64(nw)
			for b := nw; b != 0; b &= b - 1 {
				base[bits.TrailingZeros64(b)*n+int(v)] = level
			}
		}
		if len(active) > 0 {
			st.depth = int(level)
		}
	}
	if st.pairs < w*n {
		all := ^uint64(0) >> (batchSize - w)
		for v := 0; v < n; v++ {
			for b := all &^ seen[v]; b != 0; b &= b - 1 {
				base[bits.TrailingZeros64(b)*n+v] = Unreachable
			}
		}
	}
	return st
}
