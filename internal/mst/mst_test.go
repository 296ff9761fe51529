package mst

import (
	"testing"

	"lpltsp/internal/rng"
)

func randomWeights(r *rng.RNG, n, maxW int) [][]int64 {
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x := int64(1 + r.Intn(maxW))
			w[i][j], w[j][i] = x, x
		}
	}
	return w
}

func TestPrimEqualsKruskalOnComplete(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(20)
		w := randomWeights(r, n, 50)
		wf := func(i, j int) int64 { return w[i][j] }
		parent, primTotal := PrimDense(n, wf)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, Edge{i, j, w[i][j]})
			}
		}
		tree, kruskalTotal := Kruskal(n, edges)
		if primTotal != kruskalTotal {
			t.Fatalf("trial %d: prim %d != kruskal %d", trial, primTotal, kruskalTotal)
		}
		if n > 1 && len(tree) != n-1 {
			t.Fatalf("kruskal tree has %d edges", len(tree))
		}
		// parent encodes a tree: count edges and total.
		var ptotal int64
		cnt := 0
		for v := 0; v < n; v++ {
			if parent[v] >= 0 {
				ptotal += w[v][parent[v]]
				cnt++
			}
		}
		if n > 0 && (cnt != n-1 || ptotal != primTotal) {
			t.Fatalf("prim parents: %d edges total %d (want %d, %d)", cnt, ptotal, n-1, primTotal)
		}
	}
}

// TestCutProperty: removing any tree edge, the edge is a minimum-weight
// crossing edge of the induced cut (with ties allowed).
func TestCutProperty(t *testing.T) {
	r := rng.New(2)
	n := 12
	w := randomWeights(r, n, 30)
	wf := func(i, j int) int64 { return w[i][j] }
	parent, _ := PrimDense(n, wf)
	for v := 1; v < n; v++ {
		u := parent[v]
		if u < 0 {
			continue
		}
		// Partition by removing edge (v,u): side(v) = subtree under v.
		children := make([][]int, n)
		for x := 1; x < n; x++ {
			children[parent[x]] = append(children[parent[x]], x)
		}
		side := make([]bool, n)
		stack := []int{v}
		side[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range children[x] {
				if !side[c] {
					side[c] = true
					stack = append(stack, c)
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if side[a] && !side[b] && w[a][b] < w[v][u] {
					t.Fatalf("cut property violated: edge (%d,%d)=%d beats tree edge (%d,%d)=%d",
						a, b, w[a][b], v, u, w[v][u])
				}
			}
		}
	}
}

func TestKruskalForest(t *testing.T) {
	// Disconnected edge set: forest with 2 trees.
	edges := []Edge{{0, 1, 1}, {2, 3, 2}}
	tree, total := Kruskal(4, edges)
	if len(tree) != 2 || total != 3 {
		t.Fatalf("forest: %v total %d", tree, total)
	}
}

func TestPrimPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PrimDense(0, nil)
}
