package pathpart

import (
	"fmt"

	"lpltsp/internal/graph"
)

// Build an actual minimum path cover of a cograph from its cotree (and
// count one: CographCount is its length). The join step realizes the
// recurrence pc(A∗B) = max(1, pcA−|B|, pcB−|A|):
//
//   - A-heavy (pcA−|B| = t ≥ 1): break B into singleton connectors and
//     splice them between consecutive A paths — one long spliced path
//     plus the pcA−|B|−1 untouched A paths.
//   - symmetric when B-heavy;
//   - t = 1: split the smaller-count side's paths into contiguous pieces
//     (its own edges stay usable inside a piece) and alternate
//     path/piece/path/… into a single Hamiltonian path.
//
// Every junction alternates sides, so it is a join edge; pieces keep
// their side's internal edges. The tests verify both validity (Verify)
// and minimality (length == the recurrence over the modular
// decomposition == the 2ⁿ DP on small n).

// CographPaths returns a minimum path cover of the cograph g. It splits
// V into the components of g or, when g is connected, of its complement
// (the parallel and series nodes of the cotree), recursively, and errors
// at the first vertex set that neither splits — a prime node, so g is no
// cograph. Each split costs O(|S| + Σ_{v∈S} deg(v)) for its vertex set S
// (the complement's components come from a BFS over the unvisited set,
// never from the complement itself), so rejecting a graph costs only the
// splits above its first prime node: O(n + m) when g and its complement
// are both connected.
func CographPaths(g *graph.Graph) ([][]int, error) {
	n := g.N()
	if n == 0 {
		return nil, nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	sp := &splitter{g: g, in: make([]int32, n), seen: make([]int32, n)}
	return sp.cover(vs)
}

// splitter carries the stamp arrays of CographPaths' recursive splits:
// in[v] == epoch marks the vertex set being split, seen[v] == tick a
// vertex visited (or, in the complement BFS, adjacent to the vertex being
// expanded).
type splitter struct {
	g           *graph.Graph
	in, seen    []int32
	epoch, tick int32
}

func (sp *splitter) cover(vs []int) ([][]int, error) {
	if len(vs) == 1 {
		return [][]int{{vs[0]}}, nil
	}
	if parts := sp.components(vs); len(parts) > 1 {
		var all [][]int
		for _, part := range parts {
			ps, err := sp.cover(part)
			if err != nil {
				return nil, err
			}
			all = append(all, ps...)
		}
		return all, nil
	}
	parts := sp.coComponents(vs)
	if len(parts) == 1 {
		return nil, fmt.Errorf("pathpart: not a cograph (prime node over %d vertices)", len(vs))
	}
	var acc [][]int
	for i, part := range parts {
		ps, err := sp.cover(part)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			acc = ps
			continue
		}
		acc = joinPaths(acc, ps)
	}
	return acc, nil
}

// components returns the vertex sets of the components of g[vs].
func (sp *splitter) components(vs []int) [][]int {
	sp.epoch++
	sp.tick++
	for _, v := range vs {
		sp.in[v] = sp.epoch
	}
	var parts [][]int
	for _, s := range vs {
		if sp.seen[s] == sp.tick {
			continue
		}
		sp.seen[s] = sp.tick
		part := []int{s}
		for h := 0; h < len(part); h++ {
			for _, w := range sp.g.Neighbors(part[h]) {
				if sp.in[w] == sp.epoch && sp.seen[w] != sp.tick {
					sp.seen[w] = sp.tick
					part = append(part, int(w))
				}
			}
		}
		parts = append(parts, part)
	}
	return parts
}

// coComponents returns the vertex sets of the components of the
// complement of g[vs]: a BFS whose frontier takes every unvisited vertex
// not adjacent to the vertex being expanded. A vertex kept unvisited is
// charged to an edge, one taken to itself.
func (sp *splitter) coComponents(vs []int) [][]int {
	rest := append([]int(nil), vs...)
	var parts [][]int
	for len(rest) > 0 {
		part := []int{rest[len(rest)-1]}
		rest = rest[:len(rest)-1]
		for h := 0; h < len(part) && len(rest) > 0; h++ {
			sp.tick++
			for _, w := range sp.g.Neighbors(part[h]) {
				sp.seen[w] = sp.tick
			}
			keep := rest[:0]
			for _, w := range rest {
				if sp.seen[w] == sp.tick {
					keep = append(keep, w)
				} else {
					part = append(part, w)
				}
			}
			rest = keep
		}
		parts = append(parts, part)
	}
	return parts
}

// joinPaths merges path covers of A and B into a minimum path cover of
// the join A∗B.
func joinPaths(pa, pb [][]int) [][]int {
	a, b := totalVertices(pa), totalVertices(pb)
	pcA, pcB := len(pa), len(pb)
	t := joinPC(pcA, a, pcB, b)
	switch {
	case t == pcA-b && t > 1:
		return spliceHeavy(pa, pb)
	case t == pcB-a && t > 1:
		return spliceHeavy(pb, pa)
	default: // t == 1: build a single Hamiltonian path
		if pcA >= pcB {
			return [][]int{alternate(pa, pb)}
		}
		return [][]int{alternate(pb, pa)}
	}
}

// spliceHeavy handles the heavy side: connectors (all vertices of the
// light side, as singletons) splice heavy paths; result has
// len(heavy) − totalVertices(light) paths.
func spliceHeavy(heavy, light [][]int) [][]int {
	var connectors []int
	for _, p := range light {
		connectors = append(connectors, p...)
	}
	// One long chain consuming all connectors and len(connectors)+1
	// heavy paths.
	var chain []int
	chain = append(chain, heavy[0]...)
	for i, c := range connectors {
		chain = append(chain, c)
		chain = append(chain, heavy[i+1]...)
	}
	out := [][]int{chain}
	out = append(out, heavy[len(connectors)+1:]...)
	return out
}

// alternate builds one Hamiltonian path of the join when many = the side
// with at least as many paths: many's paths alternate with contiguous
// pieces of few's paths.
func alternate(many, few [][]int) []int {
	pcM := len(many)
	// Number of pieces needed from the few side: pcM−1 if its own path
	// count allows (pieces must be ≥ len(few)), else pcM (chain ends with
	// a piece).
	piecesNeeded := pcM - 1
	if piecesNeeded < len(few) {
		piecesNeeded = pcM
	}
	pieces := splitIntoPieces(few, piecesNeeded)
	var out []int
	for i, p := range many {
		out = append(out, p...)
		if i < len(pieces) {
			out = append(out, pieces[i]...)
		}
	}
	return out
}

// splitIntoPieces splits a path list into exactly k nonempty contiguous
// pieces (k ≥ len(paths), k ≤ total vertices).
func splitIntoPieces(paths [][]int, k int) [][]int {
	pieces := make([][]int, 0, k)
	for _, p := range paths {
		pieces = append(pieces, p)
	}
	for len(pieces) < k {
		// Split the first piece with ≥ 2 vertices.
		split := -1
		for i, p := range pieces {
			if len(p) >= 2 {
				split = i
				break
			}
		}
		if split < 0 {
			break // cannot split further; callers guarantee k ≤ total
		}
		p := pieces[split]
		pieces[split] = p[:1]
		pieces = append(pieces, p[1:])
	}
	return pieces
}

func totalVertices(paths [][]int) int {
	n := 0
	for _, p := range paths {
		n += len(p)
	}
	return n
}
