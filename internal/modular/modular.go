// Package modular computes the two graph parameters the paper's FPT
// results revolve around: neighborhood diversity (nd) and modular-width
// (mw), together with the modular decomposition tree the latter needs.
//
// Definitions (paper, §II-B): a module M is a vertex set whose members all
// have the same neighborhood outside M. nd(G) is the minimum number of
// classes of a partition into modules that are cliques or independent sets
// with identical outside-neighborhoods ("types"); mw(G) is the minimum ℓ
// such that G has ≤ ℓ vertices or a partition into ≤ ℓ modules whose
// induced subgraphs recursively have modular-width ≤ ℓ. mw equals the
// maximum number of children of a prime node in the modular decomposition
// tree (and 2 if there is no prime node, matching the paper's ℓ ≥ 2
// convention).
package modular

import (
	"sort"

	"lpltsp/internal/graph"
)

// NDPartition is a partition of V into neighborhood-diversity classes.
type NDPartition struct {
	// Classes lists the vertex sets; each is a clique or an independent
	// set, and members of a class have identical neighborhoods outside it.
	Classes [][]int
	// ClassOf maps each vertex to its class index.
	ClassOf []int
	// IsClique[i] reports whether class i induces a clique (singleton
	// classes count as cliques).
	IsClique []bool
}

// ND returns nd(G) and the corresponding type partition. Two vertices u,v
// are in the same class iff N(u)\{v} = N(v)\{u}, i.e. they are twins
// (false twins: N(u)=N(v); true twins: N[u]=N[v]). O(n²+nm).
func ND(g *graph.Graph) (int, *NDPartition) {
	n := g.N()
	p := &NDPartition{ClassOf: make([]int, n)}
	if n == 0 {
		return 0, p
	}
	assigned := make([]bool, n)
	for v := 0; v < n; v++ {
		if assigned[v] {
			continue
		}
		// Gather all twins of v (including v).
		cls := []int{v}
		for u := v + 1; u < n; u++ {
			if assigned[u] {
				continue
			}
			if twins(g, u, v) {
				cls = append(cls, u)
			}
		}
		idx := len(p.Classes)
		for _, u := range cls {
			assigned[u] = true
			p.ClassOf[u] = idx
		}
		p.Classes = append(p.Classes, cls)
		clique := true
		if len(cls) > 1 {
			clique = g.HasEdge(cls[0], cls[1])
		}
		p.IsClique = append(p.IsClique, clique)
	}
	return len(p.Classes), p
}

// twins reports whether u and v satisfy N(u)\{v} = N(v)\{u}.
func twins(g *graph.Graph, u, v int) bool {
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	// Compare ignoring u,v themselves.
	i, j := 0, 0
	for {
		for i < len(nu) && (int(nu[i]) == u || int(nu[i]) == v) {
			i++
		}
		for j < len(nv) && (int(nv[j]) == u || int(nv[j]) == v) {
			j++
		}
		if i == len(nu) || j == len(nv) {
			return i == len(nu) && j == len(nv)
		}
		if nu[i] != nv[j] {
			return false
		}
		i++
		j++
	}
}

// NodeKind labels modular decomposition tree nodes.
type NodeKind int

const (
	// Leaf is a single vertex.
	Leaf NodeKind = iota
	// Parallel nodes join disconnected parts (quotient is edgeless).
	Parallel
	// Series nodes join co-disconnected parts (quotient is complete).
	Series
	// Prime nodes have an indecomposable quotient.
	Prime
)

func (k NodeKind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Parallel:
		return "parallel"
	case Series:
		return "series"
	case Prime:
		return "prime"
	}
	return "?"
}

// MDNode is a node of the modular decomposition tree.
type MDNode struct {
	Kind     NodeKind
	Vertices []int // vertices of the module (sorted)
	Children []*MDNode
}

// Decompose computes the modular decomposition tree of g. The
// implementation is the straightforward O(n³·m)-ish recursive algorithm
// (components / co-components / prime children via pair-closure), which is
// exact; it stands in for the linear-time algorithm of Tedder et al. that
// the paper cites, which would change only the running time.
func Decompose(g *graph.Graph) *MDNode {
	vs := make([]int, g.N())
	for i := range vs {
		vs[i] = i
	}
	return decompose(g, vs)
}

// decompose builds the MD tree of g restricted to vs (vs sorted).
func decompose(g *graph.Graph, vs []int) *MDNode {
	node := &MDNode{Vertices: vs}
	if len(vs) == 1 {
		node.Kind = Leaf
		return node
	}
	sub := g.InducedSubgraph(vs) // local indices 0..len(vs)-1
	if comps := sub.ConnectedComponents(); len(comps) > 1 {
		node.Kind = Parallel
		for _, c := range comps {
			node.Children = append(node.Children, decompose(g, mapBack(vs, c)))
		}
		return node
	}
	if coComps := sub.Complement().ConnectedComponents(); len(coComps) > 1 {
		node.Kind = Series
		for _, c := range coComps {
			node.Children = append(node.Children, decompose(g, mapBack(vs, c)))
		}
		return node
	}
	// Prime: children are the maximal proper strong modules; in the prime
	// case x,y share a child iff the module closure of {x,y} is proper.
	node.Kind = Prime
	n := len(vs)
	childOf := make([]int, n)
	for i := range childOf {
		childOf[i] = -1
	}
	var children [][]int
	for x := 0; x < n; x++ {
		if childOf[x] >= 0 {
			continue
		}
		cls := []int{x}
		childOf[x] = len(children)
		for y := x + 1; y < n; y++ {
			if childOf[y] >= 0 {
				continue
			}
			if len(moduleClosure(sub, x, y)) < n {
				childOf[y] = len(children)
				cls = append(cls, y)
			}
		}
		children = append(children, cls)
	}
	for _, c := range children {
		node.Children = append(node.Children, decompose(g, mapBack(vs, c)))
	}
	return node
}

// moduleClosure returns the smallest module of g containing {x,y}: start
// with {x,y} and repeatedly add any vertex that distinguishes a pair
// inside (is adjacent to one but not the other).
func moduleClosure(g *graph.Graph, x, y int) []int {
	n := g.N()
	in := make([]bool, n)
	in[x], in[y] = true, true
	members := []int{x, y}
	changed := true
	for changed {
		changed = false
		for w := 0; w < n; w++ {
			if in[w] {
				continue
			}
			// w distinguishes the module if it is adjacent to some but
			// not all members.
			adjCount := 0
			for _, m := range members {
				if g.HasEdge(w, m) {
					adjCount++
				}
			}
			if adjCount != 0 && adjCount != len(members) {
				in[w] = true
				members = append(members, w)
				changed = true
			}
		}
	}
	sort.Ints(members)
	return members
}

func mapBack(vs []int, local []int) []int {
	out := make([]int, len(local))
	for i, x := range local {
		out[i] = vs[x]
	}
	sort.Ints(out)
	return out
}

// Width returns mw(G): the maximum number of children over prime nodes of
// the decomposition tree, at least 2 for any graph with ≥ 2 vertices
// (series/parallel nodes can always be regrouped into two modules), and
// 1 for trivial graphs.
func Width(g *graph.Graph) int {
	if g.N() <= 1 {
		return g.N()
	}
	w := 2
	var walk func(nd *MDNode)
	walk = func(nd *MDNode) {
		if nd.Kind == Prime && len(nd.Children) > w {
			w = len(nd.Children)
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(Decompose(g))
	return w
}
