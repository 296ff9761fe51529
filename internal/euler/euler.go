// Package euler finds Eulerian trails in undirected multigraphs using
// Hierholzer's algorithm. The path variant of Christofides builds a
// connected multigraph with exactly two odd-degree vertices (MST ∪ a
// matching that leaves two vertices unmatched), walks its Eulerian trail
// between them, and shortcuts repeated vertices.
package euler

import "fmt"

// Multigraph is an undirected multigraph on vertices 0..n-1 that supports
// parallel edges.
type Multigraph struct {
	n    int
	to   []int32
	adj  [][]int32 // adj[v] = list of half-edge ids h; to[h] is the far end, h^1 the reverse
	used []bool    // per edge
}

// NewMultigraph returns an empty multigraph on n vertices.
func NewMultigraph(n int) *Multigraph {
	return &Multigraph{n: n, adj: make([][]int32, n)}
}

// AddEdge adds an undirected (possibly parallel) edge {u,v}. Self-loops are
// allowed by Hierholzer but rejected here because no caller needs them.
func (m *Multigraph) AddEdge(u, v int) {
	if u == v {
		panic("euler: self-loop")
	}
	h := int32(len(m.to))
	m.to = append(m.to, int32(v), int32(u))
	m.adj[u] = append(m.adj[u], h)
	m.adj[v] = append(m.adj[v], h+1)
	m.used = append(m.used, false)
}

// EdgeCount returns the number of (multi-)edges.
func (m *Multigraph) EdgeCount() int { return len(m.to) / 2 }

// Degree returns the degree of v counting multiplicities.
func (m *Multigraph) Degree(v int) int { return len(m.adj[v]) }

// Trail returns an Eulerian trail from s to t (s ≠ t); s and t must be the
// only odd-degree vertices.
func (m *Multigraph) Trail(s, t int) ([]int, error) {
	if s == t {
		return nil, fmt.Errorf("euler: trail endpoints must differ")
	}
	for v := 0; v < m.n; v++ {
		odd := len(m.adj[v])%2 != 0
		if odd != (v == s || v == t) {
			return nil, fmt.Errorf("euler: vertex %d parity inconsistent with trail %d→%d", v, s, t)
		}
	}
	// With exactly two odd vertices, iterative Hierholzer started at s
	// naturally ends at t.
	iter := make([]int, m.n) // per-vertex adjacency cursor
	stack := []int32{int32(s)}
	var out []int
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		advanced := false
		for iter[v] < len(m.adj[v]) {
			h := m.adj[v][iter[v]]
			iter[v]++
			if m.used[h/2] {
				continue
			}
			m.used[h/2] = true
			stack = append(stack, m.to[h])
			advanced = true
			break
		}
		if !advanced {
			out = append(out, int(v))
			stack = stack[:len(stack)-1]
		}
	}
	if len(out) != m.EdgeCount()+1 {
		return nil, fmt.Errorf("euler: edges not connected (walk covers %d of %d edges)",
			len(out)-1, m.EdgeCount())
	}
	// Reverse for the natural s-first orientation.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}
