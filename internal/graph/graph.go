// Package graph provides the undirected-graph substrate used by the whole
// library: adjacency-list graphs, breadth-first search, a bit-parallel
// all-pairs distance matrix, graph powers and complements, generators for the workload
// suites, the hardness gadgets from the paper, and a small text I/O format.
//
// Vertices are the integers 0..N()-1. Graphs are simple (no loops, no
// parallel edges) and undirected. Two representations coexist: mutation
// (AddEdge) appends to per-vertex adjacency lists, and the read side —
// BFS, the APSP kernels, degree/neighbor scans — runs on a CSR
// (compressed sparse row) view, one offsets array plus one flat sorted
// neighbor array, built lazily per mutation generation alongside
// normalization (see csr.go). The 128-bit structural Fingerprint is
// likewise memoized per generation. Call Normalize (done automatically by
// the query methods that need it) after mutating to sort and deduplicate
// neighbor lists; the derived views rebuild themselves on next use.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is a simple undirected graph on vertices 0..n-1.
//
// The zero value is an empty graph on zero vertices. Mutation methods
// (AddEdge) may leave neighbor lists unsorted; query methods normalize
// lazily. Graph is not safe for concurrent mutation, but lazy normalization
// itself is guarded, so concurrent queries (which may each trigger
// Normalize) are safe as long as no goroutine is mutating the graph.
type Graph struct {
	adj        [][]int32
	m          int
	normalized atomic.Bool
	normMu     sync.Mutex

	// Derived read-only views, built lazily once the graph is normalized
	// and dropped on mutation: the CSR traversal layout (csr.go) and the
	// memoized 128-bit fingerprint (hash.go). Both are published with an
	// atomic pointer so concurrent queries share one build.
	csrView atomic.Pointer[csr]
	fp      atomic.Pointer[[2]uint64]
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{adj: make([][]int32, n)}
	g.normalized.Store(true)
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges. Like the other query methods it
// normalizes first (duplicate AddEdge calls collapse), which also makes it
// safe against a concurrently running lazy normalization.
func (g *Graph) M() int {
	g.Normalize()
	return g.m
}

// AddEdge inserts the undirected edge {u,v}. Loops are rejected with a
// panic; duplicate edges are detected during Normalize and collapse, keeping
// M accurate. For bulk construction prefer adding all edges then querying.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(g.adj)))
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	g.normalized.Store(false)
	g.csrView.Store(nil)
	g.fp.Store(nil)
}

// Normalize sorts neighbor lists and removes duplicate edges. It is
// idempotent and called lazily by query methods that need sorted lists.
// Concurrent callers are serialized, so racing queries on a not-yet
// normalized graph are safe (mutation must still be exclusive).
func (g *Graph) Normalize() {
	if g.normalized.Load() {
		return
	}
	g.normMu.Lock()
	defer g.normMu.Unlock()
	if g.normalized.Load() {
		return
	}
	total := 0
	for u := range g.adj {
		a := g.adj[u]
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		w := 0
		for i, x := range a {
			if i == 0 || x != a[i-1] {
				a[w] = x
				w++
			}
		}
		g.adj[u] = a[:w]
		total += w
	}
	g.m = total / 2
	g.normalized.Store(true)
}

// Neighbors returns the sorted neighbor list of u, backed by the CSR
// view's flat neighbor array (cache-local when callers scan consecutive
// vertices). The returned slice is owned by the graph and must not be
// modified.
func (g *Graph) Neighbors(u int) []int32 {
	return g.csrData().neighbors(u)
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int {
	return g.csrData().degree(u)
}

// MaxDegree returns the maximum degree Δ(G), or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	c := g.csrData()
	d := int32(0)
	for u := 1; u < len(c.offsets); u++ {
		if deg := c.offsets[u] - c.offsets[u-1]; deg > d {
			d = deg
		}
	}
	return int(d)
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	c := g.csrData()
	a := c.neighbors(u)
	if c.degree(v) < len(a) {
		a = c.neighbors(v)
		v = u
	}
	t := int32(v)
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == t
}

// Edges returns all edges as pairs with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	c := g.csrData()
	es := make([][2]int, 0, g.m)
	for u := 0; u+1 < len(c.offsets); u++ {
		for _, v := range c.neighbors(u) {
			if int(v) > u {
				es = append(es, [2]int{u, int(v)})
			}
		}
	}
	return es
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	g.Normalize()
	h := &Graph{adj: make([][]int32, len(g.adj)), m: g.m}
	h.normalized.Store(true)
	for u := range g.adj {
		h.adj[u] = append([]int32(nil), g.adj[u]...)
	}
	return h
}

// Complement returns the complement graph Ḡ.
func (g *Graph) Complement() *Graph {
	g.Normalize()
	n := g.N()
	h := New(n)
	for u := 0; u < n; u++ {
		a := g.adj[u]
		i := 0
		for v := u + 1; v < n; v++ {
			for i < len(a) && int(a[i]) < v {
				i++
			}
			if i < len(a) && int(a[i]) == v {
				continue
			}
			h.AddEdge(u, v)
		}
	}
	h.Normalize()
	return h
}

// InducedSubgraph returns the subgraph induced by the given vertices, whose
// vertex i corresponds to vs[i]. Duplicate vertices in vs panic.
func (g *Graph) InducedSubgraph(vs []int) *Graph {
	g.Normalize()
	idx := make(map[int]int, len(vs))
	for i, v := range vs {
		if _, dup := idx[v]; dup {
			panic("graph: duplicate vertex in induced subgraph")
		}
		idx[v] = i
	}
	h := New(len(vs))
	for i, v := range vs {
		for _, w := range g.adj[v] {
			if j, ok := idx[int(w)]; ok && j > i {
				h.AddEdge(i, j)
			}
		}
	}
	h.Normalize()
	return h
}

// Power returns the k-th power Gᵏ: vertices at distance ≤ k become adjacent.
// k must be ≥ 1.
func (g *Graph) Power(k int) *Graph {
	if k < 1 {
		panic("graph: power k must be >= 1")
	}
	if k == 1 {
		return g.Clone()
	}
	return g.AllPairsDistances().Power(k)
}

// String returns a short human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}
