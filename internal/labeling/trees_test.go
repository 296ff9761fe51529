package labeling

import (
	"runtime"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

func TestTreeLambda21VsBruteForce(t *testing.T) {
	r := rng.New(1)
	var gs []*graph.Graph
	for trial := 0; trial < 60; trial++ {
		gs = append(gs, graph.RandomTree(r, 1+r.Intn(10)))
	}
	for n := 2; n <= 10; n++ {
		gs = append(gs, graph.Star(n))
	}
	for _, legs := range [][2]int{{3, 1}, {3, 2}, {4, 2}, {3, 3}, {5, 1}, {2, 4}} {
		gs = append(gs, spider(legs[0], legs[1]))
	}
	for _, legs := range [][]int{{1, 1}, {2, 2}, {2, 1, 2}, {1, 1, 1, 1}, {3, 0, 3}, {2, 2, 2}, {1, 2, 1, 2}, {0, 4, 2}} {
		gs = append(gs, caterpillar(legs))
	}
	for i, g := range gs {
		lab, span, err := TreeLambda21(g)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if err := Verify(g, L21(), lab); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		_, want, err := BruteForceExact(g, L21())
		if err != nil {
			t.Fatal(err)
		}
		if span != want {
			t.Fatalf("tree %d (n=%d): tree algorithm %d != brute force %d", i, g.N(), span, want)
		}
	}
}

func TestTreeLambda21LargeTreesInChangKuoRange(t *testing.T) {
	// For every tree, λ ∈ {Δ+1, Δ+2} (Chang–Kuo / Griggs–Yeh).
	r := rng.New(2)
	for trial := 0; trial < 15; trial++ {
		n := 20 + r.Intn(150)
		g := graph.RandomTree(r, n)
		lab, span, err := TreeLambda21(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(g, L21(), lab); err != nil {
			t.Fatal(err)
		}
		d := g.MaxDegree()
		if span != d+1 && span != d+2 {
			t.Fatalf("trial %d: tree λ = %d outside {Δ+1, Δ+2} = {%d,%d}", trial, span, d+1, d+2)
		}
	}
}

func TestTreeLambda21KnownValues(t *testing.T) {
	// Stars: λ(K_{1,m}) = m+1 = Δ+1.
	for m := 2; m <= 8; m++ {
		_, span, err := TreeLambda21(graph.Star(m + 1))
		if err != nil {
			t.Fatal(err)
		}
		if span != m+1 {
			t.Fatalf("star with %d leaves: λ = %d, want %d", m, span, m+1)
		}
	}
	// Paths: P2 → 2, P3,P4 → 3, P5+ → 4 = Δ+2.
	for n := 2; n <= 10; n++ {
		_, span, err := TreeLambda21(graph.Path(n))
		if err != nil {
			t.Fatal(err)
		}
		if span != PathLambda21(n) {
			t.Fatalf("P%d: λ = %d, want %d", n, span, PathLambda21(n))
		}
	}
	// Spider with three long legs: Δ = 3, λ should be Δ+1 or Δ+2.
	g := graph.New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.AddEdge(0, 5)
	g.AddEdge(5, 6)
	_, span, err := TreeLambda21(g)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := BruteForceExact(g, L21())
	if span != want {
		t.Fatalf("spider: %d vs brute %d", span, want)
	}
}

// TestTreeLambda21Pinned pins λ on seeded random trees, stars, paths and
// caterpillars to the values of a reference DP that ran one matching for
// every pair of parent label and own label.
func TestTreeLambda21Pinned(t *testing.T) {
	gs := pinnedTrees()
	if len(gs) != len(pinnedLambda) {
		t.Fatalf("%d trees, %d pinned values", len(gs), len(pinnedLambda))
	}
	plus2 := 0
	for i, g := range gs {
		lab, span, err := TreeLambda21(g)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if span != pinnedLambda[i] || lab.Span() != span {
			t.Fatalf("tree %d (n=%d, Δ=%d): λ = %d (labeling span %d), pinned %d",
				i, g.N(), g.MaxDegree(), span, lab.Span(), pinnedLambda[i])
		}
		if span == g.MaxDegree()+2 {
			plus2++
		}
	}
	if plus2 == 0 {
		t.Fatal("the pinned set has no tree with λ = Δ+2")
	}
}

// pinnedLambda[i] is λ_{2,1} of pinnedTrees()[i].
var pinnedLambda = []int{
	7, 10, 10, 8, 11, 7, 9, 7, 8, 12, 7, 5, 9, 8, 9, 9, 10, 8, 10, 11,
	9, 9, 11, 8, 8, 9, 9, 8, 9, 7, 9, 10, 12, 9, 10, 7, 12, 8, 9, 9,
	11, 10, 10, 10, 11, 11, 8, 14, 6, 10, 7, 11, 8, 11, 9, 10, 7, 8, 9, 10,
	9, 10, 10, 15, 7, 7, 8, 6, 9, 9, 12, 8, 9, 10, 11, 6, 10, 9, 6, 9,
	11, 10, 8, 10, 7, 11, 10, 12, 8, 12, 10, 6, 8, 9, 10, 7, 8, 12, 6, 10,
	7, 7, 8, 6, 8, 8, 8, 11, 10, 9, 10, 9, 9, 9, 9, 8, 7, 8, 10, 11,
	8, 8, 10, 9, 10, 9, 11, 9, 9, 9, 10, 6, 9, 9, 10, 12, 10, 10, 10, 9,
	9, 13, 9, 10, 11, 8, 7, 7, 11, 8, 8, 8, 7, 10, 10, 10, 9, 8, 11, 10,
	9, 6, 9, 11, 10, 9, 12, 9, 9, 12, 7, 9, 10, 10, 8, 9, 9, 12, 7, 10,
	9, 10, 9, 14, 10, 10, 11, 8, 13, 9, 14, 11, 9, 9, 9, 10, 10, 7, 10, 13,
	9, 7, 10, 12, 10, 11, 9, 10, 10, 8, 10, 5, 11, 9, 8, 9, 8, 8, 11, 14,
	2, 3, 5, 9, 33, 64, 65, 130, 300, 2, 3, 3, 4, 4, 4, 4, 4, 3, 4, 5,
	5, 5, 6, 7, 7, 5, 5, 9, 13, 10, 5, 11, 23, 10, 42,
}

// pinnedTrees is the λ-table corpus: seeded random recursive trees with
// n ∈ [20, 400], then stars, paths and caterpillars.
func pinnedTrees() []*graph.Graph {
	var out []*graph.Graph
	for i := 0; i < 220; i++ {
		r := rng.New(uint64(7000 + i))
		out = append(out, graph.RandomTree(r, 20+r.Intn(381)))
	}
	for _, n := range []int{2, 3, 5, 9, 33, 64, 65, 130, 300} {
		out = append(out, graph.Star(n))
	}
	for _, n := range []int{2, 3, 4, 5, 6, 7, 50, 400} {
		out = append(out, graph.Path(n))
	}
	for _, legs := range [][]int{
		{1, 1}, {2, 2}, {3, 3}, {2, 2, 2}, {3, 1, 3}, {3, 2, 3}, {5, 0, 5},
		{4, 3, 3, 4}, {1, 1, 1, 1, 1, 1}, {3, 2, 1, 2, 3}, {6, 5, 6},
		{10, 9, 9, 10}, {0, 7, 0, 7, 0}, {2, 0, 2, 0, 2, 0, 2}, {8, 1, 8, 1, 8},
		{20, 19, 20}, {1, 2, 3, 4, 5, 6, 7, 8}, {40, 0, 0, 40},
	} {
		out = append(out, caterpillar(legs))
	}
	return out
}

// caterpillar returns a path of len(legs) spine vertices where spine
// vertex i carries legs[i] pendant leaves.
func caterpillar(legs []int) *graph.Graph {
	n := len(legs)
	for _, l := range legs {
		n += l
	}
	g := graph.New(n)
	next := len(legs)
	for i, l := range legs {
		if i > 0 {
			g.AddEdge(i-1, i)
		}
		for ; l > 0; l-- {
			g.AddEdge(i, next)
			next++
		}
	}
	g.Normalize()
	return g
}

// spider returns a centre 0 with legs paths of legLen vertices each.
func spider(legs, legLen int) *graph.Graph {
	g := graph.New(1 + legs*legLen)
	v := 1
	for l := 0; l < legs; l++ {
		prev := 0
		for i := 0; i < legLen; i++ {
			g.AddEdge(prev, v)
			prev = v
			v++
		}
	}
	g.Normalize()
	return g
}

// doubleBroom returns two hubs joined through one middle vertex (so at
// distance 2), each carrying leaves pendant leaves.
func doubleBroom(leaves int) *graph.Graph {
	g := graph.New(3 + 2*leaves)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	for i := 0; i < leaves; i++ {
		g.AddEdge(0, 3+i)
		g.AddEdge(1, 3+leaves+i)
	}
	g.Normalize()
	return g
}

// hubPath returns two hubs of degree deg joined by a path through inner
// further vertices.
func hubPath(deg, inner int) *graph.Graph {
	g := graph.New(2*deg + inner)
	prev := 0
	for i := 0; i < inner; i++ {
		g.AddEdge(prev, 2+i)
		prev = 2 + i
	}
	g.AddEdge(prev, 1)
	next := 2 + inner
	for hub := 0; hub < 2; hub++ {
		for i := 1; i < deg; i++ {
			g.AddEdge(hub, next)
			next++
		}
	}
	g.Normalize()
	return g
}

// TestTreeLambda21HighDegree covers trees with one or two high-degree
// vertices. A table with a row for every (vertex, parent label, own
// label) would take n·(Δ+2)² bytes, 68.8 GB for Star(4096); the DP's
// allocation is bounded by a deterministic TotalAlloc count instead.
func TestTreeLambda21HighDegree(t *testing.T) {
	cases := []struct {
		name     string
		g        *graph.Graph
		maxAlloc uint64 // bytes treeLabel may allocate at span Δ+1
	}{
		{"star-4096", graph.Star(4096), 1 << 20},
		{"spider-100x2", spider(100, 2), 64 << 10},
		{"spider-200x2", spider(200, 2), 64 << 10},
		{"double-broom-64", doubleBroom(64), 64 << 10},
		{"double-broom-200", doubleBroom(200), 256 << 10},
		// Only the rows near the far hub are kept: 200 kept rows would
		// take 1.3 MB.
		{"hub-path-200", hubPath(200, 200), 256 << 10},
	}
	for _, tc := range cases {
		g := tc.g
		lab, span, err := TreeLambda21(g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := Verify(g, L21(), lab); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := g.MaxDegree()
		if span != d+1 && span != d+2 {
			t.Fatalf("%s: λ = %d outside {Δ+1, Δ+2} = {%d,%d}", tc.name, span, d+1, d+2)
		}
		if tc.name == "star-4096" && span != d+1 {
			t.Fatalf("%s: λ = %d, want Δ+1 = %d", tc.name, span, d+1)
		}
		tr := rootTree(g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := treeLabel(tr, d+1); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.maxAlloc {
			t.Errorf("%s: treeLabel allocated %d bytes, bound %d", tc.name, got, tc.maxAlloc)
		} else {
			t.Logf("%s: treeLabel allocated %d bytes", tc.name, got)
		}
	}
}

func TestTreeLambda21RejectsNonTrees(t *testing.T) {
	if _, _, err := TreeLambda21(graph.Cycle(4)); err == nil {
		t.Fatal("cycle must be rejected")
	}
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, _, err := TreeLambda21(g); err == nil {
		t.Fatal("forest must be rejected")
	}
}

func TestTreeTrivialSizes(t *testing.T) {
	lab, span, err := TreeLambda21(graph.New(0))
	if err != nil || span != 0 || len(lab) != 0 {
		t.Fatal("empty tree")
	}
	lab, span, err = TreeLambda21(graph.New(1))
	if err != nil || span != 0 || lab[0] != 0 {
		t.Fatal("single vertex")
	}
	_, span, err = TreeLambda21(graph.Path(2))
	if err != nil || span != 2 {
		t.Fatalf("P2: %d %v", span, err)
	}
}

func TestPathLabeling21Construction(t *testing.T) {
	for n := 0; n <= 40; n++ {
		lab := PathLabeling21(n)
		if n == 0 {
			continue
		}
		g := graph.Path(n)
		if err := Verify(g, L21(), lab); err != nil {
			t.Fatalf("P%d: %v", n, err)
		}
		if lab.Span() != PathLambda21(n) {
			t.Fatalf("P%d: constructed span %d, formula %d", n, lab.Span(), PathLambda21(n))
		}
	}
}

func TestCycleLabeling21Construction(t *testing.T) {
	for n := 3; n <= 60; n++ {
		lab := CycleLabeling21(n)
		g := graph.Cycle(n)
		if err := Verify(g, L21(), lab); err != nil {
			t.Fatalf("C%d (%v): %v", n, lab, err)
		}
		if lab.Span() != 4 {
			t.Fatalf("C%d: constructed span %d, want 4", n, lab.Span())
		}
	}
}

// FuzzTreeLambda21 decodes the bytes as a tree (vertex i attaches to
// b[i−1] mod i, up to 40 vertices) and checks the labeling: Verify-clean,
// span in {Δ+1, Δ+2}, and equal to brute force up to 9 vertices.
func FuzzTreeLambda21(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})    // star
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})    // path
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 0})    // caterpillar
	f.Add([]byte{0, 0, 0, 1, 2, 3, 1, 2, 3}) // spider
	f.Fuzz(func(t *testing.T, b []byte) {
		n := min(len(b)+1, 40)
		g := graph.New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i, int(b[i-1])%i)
		}
		g.Normalize()
		lab, span, err := TreeLambda21(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := Verify(g, L21(), lab); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := g.MaxDegree(); n > 1 && span != d+1 && span != d+2 {
			t.Fatalf("n=%d: λ = %d outside {Δ+1, Δ+2} = {%d,%d}", n, span, d+1, d+2)
		}
		if n <= 9 {
			if _, want, err := BruteForceExact(g, L21()); err != nil || span != want {
				t.Fatalf("n=%d: tree algorithm %d, brute force %d (%v)", n, span, want, err)
			}
		}
	})
}
