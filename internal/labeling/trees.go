package labeling

import (
	"fmt"
	"math/bits"
	"slices"

	"lpltsp/internal/graph"
)

// Exact L(2,1)-labeling of trees, in the style of Chang & Kuo (1996) —
// the polynomial class the paper contrasts with its graph-agnostic TSP
// approach ("the polynomial-time solvability for trees depends on not a
// tree-like structure but the tree structure itself").
//
// Facts used: for any graph, λ_{2,1} ≥ Δ+1; for trees, λ_{2,1} ≤ Δ+2
// (Griggs & Yeh), so only the decision "is span Δ+1 feasible?" is needed.
//
// The decision is a bottom-up DP over the tree rooted at a maximum-degree
// vertex, with s = span+1 labels. Let L_b be the labels ℓ with |ℓ−b| ≥ 2.
// The subtree below edge (parent(v), v) is labelable with l(parent(v)) = a
// and l(v) = b when the children of v get distinct labels in L_b, none
// equal to a, each feasible for its own subtree under parent label b. For
// each (v, b) the DP runs one bipartite matching M of the children into
// L_b, ignoring a. If M leaves a child unmatched, no a works. Otherwise a
// works exactly when some full matching avoids it: when a is free in M,
// or an alternating path (free label, child, its label in M, child, …)
// from a free label reaches a. One sweep collects every such a at once.
//
// The answers sit in one flat bitset table. Row (v, a) holds the labels b
// that v's subtree accepts under parent label a, in ⌈s/64⌉ words. A vertex
// stores no row when its subtree accepts every pair |a−b| ≥ 2. Leaves do,
// and so does a vertex of degree ≤ s−3 whose children store no row: there
// labeling top down never runs out, as a vertex is barred from at most
// deg(parent)+2 < s labels (its parent's three, its grandparent's, its
// siblings'). The DP skips such vertices. It computes the rows of the
// others and drops any that accept every pair: the pull of a high-degree
// vertex fades a few levels above it, so a long path between two hubs
// keeps rows only near them. Rooting at a maximum-degree vertex leaves
// stars and spiders with no rows at all, and at span Δ+2 the DP computes
// none.
//
// Cost: per vertex the DP does not skip, s matchings and sweeps over
// ⌈s/64⌉-word bitsets, plus O(s²) bit operations for a row it keeps, which
// takes s·⌈s/64⌉ words of table; rebuilding the labeling top down then
// takes one matching per vertex.

// TreeLambda21 returns λ_{2,1} of a tree together with an optimal
// labeling. It errors if g is not a tree (connected, m = n−1).
func TreeLambda21(g *graph.Graph) (Labeling, int, error) {
	n := g.N()
	if n == 0 {
		return Labeling{}, 0, nil
	}
	if g.M() != n-1 || !g.IsConnected() {
		return nil, 0, fmt.Errorf("labeling: not a tree (n=%d, m=%d, connected=%v)",
			n, g.M(), g.IsConnected())
	}
	if n == 1 {
		return Labeling{0}, 0, nil
	}
	t := rootTree(g)
	delta := g.MaxDegree()
	// Try span Δ+1 first; Δ+2 always works for trees.
	for _, span := range []int{delta + 1, delta + 2} {
		lab, err := treeLabel(t, span)
		if err != nil {
			return nil, 0, err
		}
		if lab != nil {
			if err := Verify(g, L21(), lab); err != nil {
				return nil, 0, fmt.Errorf("labeling: internal error: %w", err)
			}
			return lab, span, nil
		}
	}
	return nil, 0, fmt.Errorf("labeling: internal error: tree not labelable with Δ+2 = %d", delta+2)
}

// rootedTree is a tree rooted at a maximum-degree vertex, in BFS order:
// the children of v are order[first[v] : first[v]+kids[v]].
type rootedTree struct {
	parent, order, first, kids []int32
}

func rootTree(g *graph.Graph) *rootedTree {
	n := g.N()
	root := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) > g.Degree(root) {
			root = v
		}
	}
	t := &rootedTree{
		parent: make([]int32, n),
		order:  make([]int32, 1, n),
		first:  make([]int32, n),
		kids:   make([]int32, n),
	}
	t.parent[root] = -1
	t.order[0] = int32(root)
	for head := 0; head < len(t.order); head++ {
		v := t.order[head]
		t.first[v] = int32(len(t.order))
		for _, u := range g.Neighbors(int(v)) {
			if u != t.parent[v] {
				t.parent[u] = v
				t.order = append(t.order, u)
			}
		}
		t.kids[v] = int32(len(t.order)) - t.first[v]
	}
	return t
}

func (t *rootedTree) children(v int32) []int32 {
	return t.order[t.first[v] : t.first[v]+t.kids[v]]
}

// treeLabel returns an L(2,1)-labeling of the tree with labels in
// 0..span, or nil if there is none. The error reports a table that
// contradicts itself, which only a bug can cause.
func treeLabel(t *rootedTree, span int) (Labeling, error) {
	n := len(t.order)
	s := span + 1
	m := newLabelMatcher(s, n, int(t.kids[t.order[0]]))
	w := m.w
	// Bottom-up, children before parents; the root needs no row, as
	// nothing sits above it. acc[b*w:][:w] collects the parent labels v
	// accepts with label b.
	var acc []uint64
	for i := n - 1; i >= 1; i-- {
		v := t.order[i]
		kids := t.children(v)
		if len(kids) == 0 || (len(kids)+1 <= s-3 && m.countRows(kids) == 0) {
			continue
		}
		if acc == nil {
			acc = make([]uint64, s*w)
		}
		full := true
		for b := 0; b < s; b++ {
			dst := acc[b*w:][:w]
			clear(dst)
			if m.match(kids, b, -1) {
				copy(dst, m.avoidable())
			}
			full = full && slices.Equal(dst, m.base)
		}
		if !full {
			m.addRow(v, acc)
		}
	}

	// The root takes the first label its children can be matched under;
	// then one matching per vertex rebuilds the labeling top down.
	root := t.order[0]
	lab := make(Labeling, n)
	lab[root] = -1
	for b := 0; b < s; b++ {
		if m.match(t.children(root), b, -1) {
			lab[root] = b
			break
		}
	}
	if lab[root] < 0 {
		return nil, nil
	}
	for _, v := range t.order {
		kids := t.children(v)
		if len(kids) == 0 {
			continue
		}
		a := -1
		if p := t.parent[v]; p >= 0 {
			a = lab[p]
		}
		if !m.match(kids, lab[v], a) {
			return nil, fmt.Errorf("labeling: internal error: tree DP row of vertex %d admits no labeling of its children", v)
		}
		for i, c := range kids {
			lab[c] = int(m.label[i])
		}
	}
	return lab, nil
}

// labelMatcher matches the children of one vertex to labels, reusing its
// scratch across every matching of a treeLabel call, and holds the DP's
// table.
type labelMatcher struct {
	s, w int
	k    int // children in the current matching
	// row[v] numbers v's block of s rows in table, or is -1 when v's
	// subtree accepts every pair |a−b| ≥ 2. Row (r, a) is
	// table[(r*s+a)*w:][:w].
	row   []int32
	table []uint64

	base  []uint64   // the labels every child may take
	adj   [][]uint64 // adj[i]: the labels child i may take
	buf   []uint64   // backing for the adj of children with a row
	owner []int32    // owner[ℓ]: the child holding label ℓ, when ℓ is owned
	label []int32    // label[i]: the label of child i
	owned []uint64
	seen  []uint64
	reach []uint64
	queue []int32
}

func newLabelMatcher(s, n, maxKids int) *labelMatcher {
	w := (s + 63) / 64
	m := &labelMatcher{
		s: s, w: w,
		row:   make([]int32, n),
		base:  make([]uint64, w),
		adj:   make([][]uint64, maxKids),
		owner: make([]int32, s),
		label: make([]int32, maxKids),
		owned: make([]uint64, w),
		seen:  make([]uint64, w),
		reach: make([]uint64, w),
		queue: make([]int32, maxKids),
	}
	for v := range m.row {
		m.row[v] = -1
	}
	return m
}

func (m *labelMatcher) countRows(kids []int32) int {
	c := 0
	for _, k := range kids {
		if m.row[k] >= 0 {
			c++
		}
	}
	return c
}

// addRow gives v a block of rows: row (v, a) gets label b for every a in
// acc[b*w:][:w].
func (m *labelMatcher) addRow(v int32, acc []uint64) {
	r := len(m.table) / (m.s * m.w)
	m.row[v] = int32(r)
	m.table = slices.Grow(m.table, m.s*m.w)[:(r+1)*m.s*m.w]
	out := m.table[r*m.s*m.w:]
	clear(out)
	for b := 0; b < m.s; b++ {
		for x, word := range acc[b*m.w:][:m.w] {
			for ; word != 0; word &= word - 1 {
				a := x*64 + bits.TrailingZeros64(word)
				out[a*m.w+b/64] |= 1 << uint(b%64)
			}
		}
	}
}

// match assigns kids distinct labels in L_b other than a (a < 0 excludes
// nothing), each accepted by the kid's row under parent label b, and
// reports whether every kid got one.
func (m *labelMatcher) match(kids []int32, b, a int) bool {
	for x := range m.base {
		m.base[x] = ^uint64(0)
	}
	if r := m.s % 64; r != 0 {
		m.base[m.w-1] = 1<<uint(r) - 1
	}
	for _, l := range [...]int{b - 1, b, b + 1, a} {
		if l >= 0 && l < m.s {
			m.base[l/64] &^= 1 << uint(l%64)
		}
	}
	m.k = len(kids)
	if popcount(m.base) < m.k {
		return false
	}
	if need := m.countRows(kids) * m.w; need > len(m.buf) {
		m.buf = make([]uint64, need)
	}
	used := 0
	for i, c := range kids {
		if m.row[c] < 0 {
			m.adj[i] = m.base
			continue
		}
		rowAB := m.table[(int(m.row[c])*m.s+b)*m.w:][:m.w]
		adj := m.buf[used*m.w:][:m.w]
		used++
		nonEmpty := uint64(0)
		for x := range adj {
			adj[x] = m.base[x] & rowAB[x]
			nonEmpty |= adj[x]
		}
		if nonEmpty == 0 {
			return false
		}
		m.adj[i] = adj
	}
	clear(m.owned)
	for i := range kids {
		clear(m.seen)
		if !m.augment(int32(i)) {
			return false
		}
	}
	return true
}

// augment finds child i a label, taking a free one when it can and
// otherwise moving the owner of a label it may take along an augmenting
// path (Kuhn).
func (m *labelMatcher) augment(i int32) bool {
	adj := m.adj[i]
	for x, word := range adj {
		if free := word &^ m.owned[x]; free != 0 {
			m.take(i, x*64+bits.TrailingZeros64(free))
			return true
		}
	}
	for x := range adj {
		for cand := adj[x] &^ m.seen[x]; cand != 0; cand = adj[x] &^ m.seen[x] {
			l := x*64 + bits.TrailingZeros64(cand)
			m.seen[x] |= 1 << uint(l%64)
			if m.augment(m.owner[l]) {
				m.take(i, l)
				return true
			}
		}
	}
	return false
}

func (m *labelMatcher) take(i int32, l int) {
	m.owned[l/64] |= 1 << uint(l%64)
	m.owner[l] = i
	m.label[i] = int32(l)
}

// avoidable returns the labels of L_b that some full matching leaves
// free, after a successful match(kids, b, -1): the free labels, and every
// label an alternating path from a free label reaches. The slice is
// scratch, valid until the next call.
func (m *labelMatcher) avoidable() []uint64 {
	for x := range m.reach {
		m.reach[x] = m.base[x] &^ m.owned[x]
	}
	// A child joins once it may take a reached label; its own label
	// (never reached before it joins) is then reached too.
	pending := m.queue[:m.k]
	for i := range pending {
		pending[i] = int32(i)
	}
	for grew := true; grew && len(pending) > 0; {
		grew = false
		keep := pending[:0]
		for _, i := range pending {
			if intersects(m.adj[i], m.reach) {
				l := m.label[i]
				m.reach[l/64] |= 1 << uint(l%64)
				grew = true
			} else {
				keep = append(keep, i)
			}
		}
		pending = keep
	}
	return m.reach
}

func popcount(set []uint64) int {
	c := 0
	for _, x := range set {
		c += bits.OnesCount64(x)
	}
	return c
}

func intersects(a, b []uint64) bool {
	for x := range a {
		if a[x]&b[x] != 0 {
			return true
		}
	}
	return false
}

// PathLabeling21 returns an optimal L(2,1)-labeling of P_n by the
// classical periodic construction, span PathLambda21(n).
func PathLabeling21(n int) Labeling {
	lab := make(Labeling, n)
	switch {
	case n <= 1:
		// all zero
	case n == 2:
		lab[1] = 2
	case n <= 4:
		// 0,2 span 3 patterns: 1,3,0,2 works for n=4 (check: |1-3|=2 ok,
		// |3-0|=3, |0-2|=2; distance 2: |1-0|=1 ok, |3-2|=1 ok).
		pattern := []int{1, 3, 0, 2}
		copy(lab, pattern[:n])
	default:
		// Period-4 pattern 0,2,4,… : 0,2,4 repeating with shift — the
		// classical span-4 labeling of long paths: 0,2,4,0,2,4,…  fails at
		// distance 2 (0 vs 4 fine, 2 vs 0 diff 2 fine at distance 2? needs
		// only ≥1). Check pairs: adjacent diffs 2,2,4 ≥2 ✓; distance-2
		// diffs 4,2,2 ≥1 ✓.
		for i := range lab {
			lab[i] = (i % 3) * 2
		}
	}
	return lab
}

// CycleLabeling21 returns an optimal span-4 L(2,1)-labeling of C_n
// (n ≥ 3).
func CycleLabeling21(n int) Labeling {
	if n < 3 {
		panic("labeling: cycle needs n >= 3")
	}
	lab := make(Labeling, n)
	// Base period-3 pattern 0,2,4 works when n ≡ 0 (mod 3); otherwise the
	// wrap-around violates constraints and the tail is patched with the
	// classical end gadgets.
	for i := range lab {
		lab[i] = (i % 3) * 2
	}
	switch n % 3 {
	case 1:
		// Prefix (0,2,4)^{(n−4)/3} then the end gadget 0,3,1,4 (n = 4 is
		// the gadget alone).
		copy(lab[n-4:], []int{0, 3, 1, 4})
	case 2:
		// Prefix (0,2,4)^{(n−5)/3} then the end gadget 0,2,4,1,3; the
		// gadget's first three entries coincide with the base pattern, so
		// only the last two positions change.
		copy(lab[n-2:], []int{1, 3})
	}
	return lab
}
