// Package labeling defines the L(p)-labeling problem — the
// distance-constrained graph labeling the paper studies — together with
// validity checking, independent exact baselines, greedy heuristics,
// classical closed-form values, and general bounds.
//
// For a graph G and a vector p = (p1,…,pk), a labeling l: V → ℕ∪{0} is an
// L(p)-labeling iff |l(u)−l(v)| ≥ p_d for every pair u,v at distance
// d ≤ k. The span is max_v l(v); L(p)-LABELING asks for the minimum span
// λ_p(G).
package labeling

import (
	"fmt"

	"lpltsp/internal/graph"
)

// Vector is the distance-constraint vector p = (p1,…,pk): vertices at
// distance d must receive labels at least p[d-1] apart.
type Vector []int

// L21 is the classical p = (2,1) of frequency assignment.
func L21() Vector { return Vector{2, 1} }

// Ones returns the all-ones vector of dimension k (L(1,…,1)-labeling,
// equivalent to coloring Gᵏ).
func Ones(k int) Vector {
	v := make(Vector, k)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Validate checks that p is a usable constraint vector.
func (p Vector) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("labeling: empty constraint vector")
	}
	for d, pd := range p {
		if pd < 0 {
			return fmt.Errorf("labeling: p[%d] = %d is negative", d+1, pd)
		}
	}
	return nil
}

// K returns the dimension of p (the distance horizon).
func (p Vector) K() int { return len(p) }

// MinMax returns pmin and pmax.
func (p Vector) MinMax() (pmin, pmax int) {
	pmin, pmax = p[0], p[0]
	for _, x := range p[1:] {
		if x < pmin {
			pmin = x
		}
		if x > pmax {
			pmax = x
		}
	}
	return pmin, pmax
}

// SatisfiesReductionCondition reports whether pmax ≤ 2·pmin, the hypothesis
// of Theorem 2.
func (p Vector) SatisfiesReductionCondition() bool {
	pmin, pmax := p.MinMax()
	return pmax <= 2*pmin
}

// Scale returns c·p. Used by Corollary 3 (λ_{cp} = c·λ_p).
func (p Vector) Scale(c int) Vector {
	q := make(Vector, len(p))
	for i, x := range p {
		q[i] = c * x
	}
	return q
}

// Labeling assigns a nonnegative label to every vertex.
type Labeling []int

// Span returns max label, or 0 for an empty labeling.
func (l Labeling) Span() int {
	s := 0
	for _, x := range l {
		if x > s {
			s = x
		}
	}
	return s
}

// MergeComponents assembles a labeling of an n-vertex graph from labelings
// of its connected components: comps[i] lists the component's vertices in
// the order labs[i] labels them (labs[i][j] is the label of comps[i][j]).
// Vertices in different components are at infinite distance, so no
// distance constraint crosses a component boundary and every component may
// start at label 0 independently; the merged span is therefore the maximum
// of the component spans, which is returned alongside the labeling.
func MergeComponents(n int, comps [][]int, labs []Labeling) (Labeling, int, error) {
	if len(comps) != len(labs) {
		return nil, 0, fmt.Errorf("labeling: %d components with %d labelings", len(comps), len(labs))
	}
	l := make(Labeling, n)
	for i := range l {
		l[i] = -1
	}
	span := 0
	for i, comp := range comps {
		if len(comp) != len(labs[i]) {
			return nil, 0, fmt.Errorf("labeling: component %d has %d vertices, labeling has %d entries",
				i, len(comp), len(labs[i]))
		}
		for j, v := range comp {
			if v < 0 || v >= n {
				return nil, 0, fmt.Errorf("labeling: component %d vertex %d out of range [0,%d)", i, v, n)
			}
			if l[v] >= 0 {
				return nil, 0, fmt.Errorf("labeling: vertex %d appears in two components", v)
			}
			l[v] = labs[i][j]
			if labs[i][j] > span {
				span = labs[i][j]
			}
		}
	}
	for v, x := range l {
		if x < 0 {
			return nil, 0, fmt.Errorf("labeling: vertex %d missing from every component", v)
		}
	}
	return l, span, nil
}

// Verify checks that l is a valid L(p)-labeling of g: correct length,
// nonnegative labels, and every pair at distance d ≤ len(p) separated by at
// least p_d. For len(p) ≤ 2 no distance matrix is built: every edge is
// checked against p₁, and every two neighbours of a vertex that are not
// themselves adjacent — exactly the pairs at distance 2 — against p₂, in
// O(n + Σ deg²). The adjacency test (a binary search) runs only for a pair
// closer than p₂, and when p₁ ≥ p₂ the first such pair is a violation,
// since adjacent pairs already passed p₁. Longer vectors run one APSP and
// check all pairs, O(n²) after it.
func Verify(g *graph.Graph, p Vector, l Labeling) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := g.N()
	if len(l) != n {
		return fmt.Errorf("labeling: labeling has %d entries for %d vertices", len(l), n)
	}
	for v, x := range l {
		if x < 0 {
			return fmt.Errorf("labeling: vertex %d has negative label %d", v, x)
		}
	}
	if len(p) > 2 {
		return VerifyWithMatrix(g.AllPairsDistances(), p, l)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v := int(v); v > u {
				if diff := gap(l, u, v); diff < p[0] {
					return violation(u, v, diff, 1, p[0])
				}
			}
		}
	}
	if len(p) == 1 {
		return nil
	}
	for w := 0; w < n; w++ {
		nb := g.Neighbors(w)
		for i, a := range nb {
			for _, b := range nb[i+1:] {
				if diff := gap(l, int(a), int(b)); diff < p[1] && !g.HasEdge(int(a), int(b)) {
					return violation(int(a), int(b), diff, 2, p[1])
				}
			}
		}
	}
	return nil
}

// VerifyWithMatrix is Verify with a precomputed distance matrix (hot paths).
func VerifyWithMatrix(dm *graph.DistMatrix, p Vector, l Labeling) error {
	n := dm.N
	if len(l) != n {
		return fmt.Errorf("labeling: labeling has %d entries for %d vertices", len(l), n)
	}
	k := len(p)
	for u := 0; u < n; u++ {
		row := dm.Row(u)
		for v := u + 1; v < n; v++ {
			d := int(row[v])
			if row[v] == graph.Unreachable || d > k {
				continue
			}
			if diff := gap(l, u, v); diff < p[d-1] {
				return violation(u, v, diff, d, p[d-1])
			}
		}
	}
	return nil
}

// gap returns |l(u) − l(v)|.
func gap(l Labeling, u, v int) int {
	if diff := l[u] - l[v]; diff >= 0 {
		return diff
	}
	return l[v] - l[u]
}

// violation is Verify's error for the pair u < v at distance d whose
// labels differ by diff < p_d = pd.
func violation(u, v, diff, d, pd int) error {
	return fmt.Errorf("labeling: |l(%d)−l(%d)| = %d < p_%d = %d (distance %d)", u, v, diff, d, pd, d)
}
