package graph

import (
	"fmt"
	"testing"

	"lpltsp/internal/rng"
)

// Equivalence suite for the CSR traversal layout: every CSR-routed query
// must be bit-identical to the adjacency-list path it replaced, across
// the generator families and fuzz-style random seeds.

// csrFamilies builds a representative instance zoo: named classes the
// corpus leans on plus randomized families across densities, including
// disconnected and edgeless graphs.
func csrFamilies(tb testing.TB) []*Graph {
	tb.Helper()
	gs := []*Graph{
		New(0),
		New(1),
		New(5), // edgeless
		Path(9),
		Cycle(8),
		Complete(7),
		Star(6),
		Wheel(7),
		petersen(),
		DisjointUnion(Path(4), Cycle(5), New(2)),
	}
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed)
		gs = append(gs,
			GNP(r, 3+int(seed)*5, 0.08*float64(seed%4+1)),
			RandomSmallDiameter(r, 8+int(seed)*3, 2+int(seed%3), 0.2),
			RandomTree(r, 4+int(seed)*4),
		)
	}
	// Sizes around the 64-source batch of the APSP sweep.
	for i, n := range []int{63, 64, 65, 130, 200} {
		gs = append(gs, RandomSmallDiameter(rng.New(uint64(100+i)), n, 2+i%3, 0.1))
	}
	gs = append(gs,
		// Components straddling the batch boundaries at 64 and 128, with
		// an isolated vertex between them.
		DisjointUnion(RandomSmallDiameter(rng.New(7), 50, 3, 0.1), Cycle(30), New(1), RandomTree(rng.New(8), 60)),
		// Multi-batch graphs with little sharing: the path and the 32×32
		// grid take the scalar side of the APSP sharing rule, the 16×16
		// grid sits just above it.
		Path(200),
		grid(16, 16),
		grid(32, 32),
	)
	return gs
}

// grid builds the r×c grid graph.
func grid(r, c int) *Graph {
	g := New(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				g.AddEdge(v, v+1)
			}
			if i+1 < r {
				g.AddEdge(v, v+c)
			}
		}
	}
	return g
}

// petersen builds the Petersen graph (outer C5, inner 5-star, spokes).
func petersen() *Graph {
	g := New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
		g.AddEdge(5+i, 5+(i+2)%5)
		g.AddEdge(i, 5+i)
	}
	return g
}

// TestCSRMatchesAdjacency pins the raw view: degrees, neighbor lists, and
// edge sets agree with the adjacency lists element for element.
func TestCSRMatchesAdjacency(t *testing.T) {
	for gi, g := range csrFamilies(t) {
		c := g.csrData()
		if got, want := len(c.offsets), g.N()+1; got != want {
			t.Fatalf("graph %d: offsets len %d, want %d", gi, got, want)
		}
		if got, want := len(c.nbrs), 2*g.M(); got != want {
			t.Fatalf("graph %d: nbrs len %d, want %d", gi, got, want)
		}
		for u := 0; u < g.N(); u++ {
			adj := g.adj[u]
			if g.Degree(u) != len(adj) {
				t.Fatalf("graph %d: degree(%d) = %d, want %d", gi, u, g.Degree(u), len(adj))
			}
			nb := g.Neighbors(u)
			if len(nb) != len(adj) {
				t.Fatalf("graph %d: neighbors(%d) length mismatch", gi, u)
			}
			for i := range nb {
				if nb[i] != adj[i] {
					t.Fatalf("graph %d: neighbors(%d)[%d] = %d, want %d", gi, u, i, nb[i], adj[i])
				}
			}
		}
	}
}

// TestCSRBFSBitIdentical: CSR BFS produces the exact distance array — and
// therefore the exact traversal order — of the adjacency-list BFS, and the
// full APSP matrix matches row for row, whichever kernel the sharing rule
// picks; both kernels are also run over every batch on their own. Max
// agrees with a scan of the matrix.
func TestCSRBFSBitIdentical(t *testing.T) {
	for gi, g := range csrFamilies(t) {
		n := g.N()
		if n == 0 {
			continue
		}
		checkAPSP(t, fmt.Sprintf("graph %d", gi), g)
		distCSR := make([]uint16, n)
		distAdj := make([]uint16, n)
		queueCSR := make([]int32, n)
		queueAdj := make([]int32, n)
		for src := 0; src < n; src++ {
			rc := g.BFSFrom(src, distCSR, queueCSR)
			ra := g.bfsFromAdj(src, distAdj, queueAdj)
			if rc != ra {
				t.Fatalf("graph %d src %d: reached %d vs %d", gi, src, rc, ra)
			}
			for v := 0; v < n; v++ {
				if distCSR[v] != distAdj[v] {
					t.Fatalf("graph %d src %d: dist[%d] = %d vs %d", gi, src, v, distCSR[v], distAdj[v])
				}
			}
			for i := 0; i < rc; i++ {
				if queueCSR[i] != queueAdj[i] {
					t.Fatalf("graph %d src %d: traversal order diverges at %d", gi, src, i)
				}
			}
		}
	}
}

// checkAPSP compares AllPairsDistances, a sweep-only matrix and a
// scalar-only matrix with the adjacency-list BFS row by row, and checks
// that Max equals a scan of the matrix and the scalar kernel's reported
// eccentricities.
func checkAPSP(t *testing.T, name string, g *Graph) {
	t.Helper()
	n := g.N()
	cs := g.csrData()
	sweep := make([]uint16, n*n)
	sc := getSweepScratch(n)
	for lo := 0; lo < n; lo += batchSize {
		cs.sweep(lo, sweep, sc)
	}
	putSweepScratch(sc)
	scalar := make([]uint16, n*n)
	queue := make([]int32, n)
	eccMax := 0
	for s := 0; s < n; s++ {
		_, ecc := cs.bfsFrom(s, scalar[s*n:(s+1)*n], queue)
		eccMax = max(eccMax, ecc)
	}
	want := make([]uint16, n*n)
	for u := 0; u < n; u++ {
		g.bfsFromAdj(u, want[u*n:(u+1)*n], queue)
	}
	dm := g.AllPairsDistances()
	for _, k := range []struct {
		kernel string
		got    []uint16
	}{{"APSP", dm.Data()}, {"sweep", sweep}, {"scalar", scalar}} {
		for i, x := range k.got {
			if x != want[i] {
				t.Fatalf("%s: %s[%d][%d] = %d, adjacency BFS says %d", name, k.kernel, i/n, i%n, x, want[i])
			}
		}
	}
	scanMax, scanDisc := 0, false
	for _, x := range want {
		if x == Unreachable {
			scanDisc = true
		} else {
			scanMax = max(scanMax, int(x))
		}
	}
	if gotMax, gotDisc := dm.Max(); gotMax != scanMax || gotDisc != scanDisc || eccMax != scanMax {
		t.Fatalf("%s: Max() = (%d, %v), scalar eccentricities %d, scan says (%d, %v)",
			name, gotMax, gotDisc, eccMax, scanMax, scanDisc)
	}
}

// TestSharingRuleSides pins which kernel the sharing rule gives the
// multi-batch families of csrFamilies: the sweep for small-diameter
// graphs, the tree and the 16×16 grid (4.2 pairs per activation), scalar
// BFS for the path and the 32×32 grid (2.5).
func TestSharingRuleSides(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *Graph
		scalar bool
	}{
		{"smalldiam/n=130", RandomSmallDiameter(rng.New(103), 130, 2, 0.1), false},
		{"smalldiam/n=200", RandomSmallDiameter(rng.New(104), 200, 3, 0.1), false},
		{"tree/n=200", RandomTree(rng.New(9), 200), false},
		{"grid/16x16", grid(16, 16), false},
		{"path/n=200", Path(200), true},
		{"grid/32x32", grid(32, 32), true},
	} {
		n := tc.g.N()
		sc := getSweepScratch(n)
		st := tc.g.csrData().sweep(0, make([]uint16, n*n), sc)
		putSweepScratch(sc)
		if got := !st.sharesEnough(); got != tc.scalar {
			t.Errorf("%s: %d pairs over %d activations: scalar=%v, want %v",
				tc.name, st.pairs, st.activations, got, tc.scalar)
		}
	}
}

// TestCSRInvalidationOnMutation: a query after AddEdge sees the new edge
// (the CSR view and fingerprint are per mutation generation).
func TestCSRInvalidationOnMutation(t *testing.T) {
	g := Path(5)
	if g.HasEdge(0, 4) {
		t.Fatal("phantom edge")
	}
	h1a, h2a := g.Fingerprint()
	dm := g.AllPairsDistances()
	if dm.Dist(0, 4) != 4 {
		t.Fatalf("path distance %d, want 4", dm.Dist(0, 4))
	}

	g.AddEdge(0, 4)
	if !g.HasEdge(0, 4) {
		t.Fatal("added edge invisible: stale CSR view")
	}
	if g.Degree(0) != 2 {
		t.Fatalf("degree(0) = %d, want 2", g.Degree(0))
	}
	if dm2 := g.AllPairsDistances(); dm2.Dist(0, 4) != 1 {
		t.Fatalf("post-mutation distance %d, want 1", dm2.Dist(0, 4))
	}
	h1b, h2b := g.Fingerprint()
	if h1a == h1b && h2a == h2b {
		t.Fatal("fingerprint not invalidated by AddEdge")
	}
}

// TestFingerprintMemoStable: repeated fingerprints of an untouched graph
// are served from the memo and equal the first computation; structurally
// equal graphs built in different edge orders still collide.
func TestFingerprintMemoStable(t *testing.T) {
	r := rng.New(99)
	g := GNP(r, 40, 0.2)
	h1, h2 := g.Fingerprint()
	for i := 0; i < 3; i++ {
		if a, b := g.Fingerprint(); a != h1 || b != h2 {
			t.Fatal("memoized fingerprint drifted")
		}
	}
	h := New(g.N())
	es := g.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		h.AddEdge(es[i][1], es[i][0])
	}
	if a, b := h.Fingerprint(); a != h1 || b != h2 {
		t.Fatal("edge order changed the fingerprint")
	}
}
