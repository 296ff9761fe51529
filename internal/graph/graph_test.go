package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"lpltsp/internal/rng"
)

func TestBasicConstruction(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate collapses
	g.AddEdge(2, 3)
	g.Normalize()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 4 and 3", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge incorrect")
	}
	if g.Degree(1) != 2 || g.MaxDegree() != 2 {
		t.Fatal("degree incorrect")
	}
	es := g.Edges()
	if len(es) != 3 || es[0] != [2]int{0, 1} {
		t.Fatalf("edges: %v", es)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(3)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 0) },
		func() { g.AddEdge(-1, 1) },
		func() { g.AddEdge(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(5)
	diam, conn := g.Diameter()
	if diam != 4 || !conn {
		t.Fatalf("path diameter %d conn %v", diam, conn)
	}
	dm := g.AllPairsDistances()
	if dm.Dist(0, 4) != 4 || dm.Dist(2, 2) != 0 || dm.Dist(1, 3) != 2 {
		t.Fatal("distance matrix wrong")
	}
	c := Cycle(6)
	diam, _ = c.Diameter()
	if diam != 3 {
		t.Fatalf("C6 diameter %d, want 3", diam)
	}
	k := Complete(7)
	diam, _ = k.Diameter()
	if diam != 1 {
		t.Fatalf("K7 diameter %d, want 1", diam)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.IsConnected() {
		t.Fatal("expected disconnected")
	}
	dm := g.AllPairsDistances()
	if dm.Dist(0, 2) != Unreachable {
		t.Fatal("expected unreachable")
	}
	_, disc := dm.Max()
	if !disc {
		t.Fatal("Max should report disconnected")
	}
	comps := g.ConnectedComponents()
	if len(comps) != 2 || len(comps[0]) != 2 {
		t.Fatalf("components: %v", comps)
	}
}

// TestParallelAPSPMatchesSequential cross-checks the parallel all-pairs
// distances against per-source BFS.
func TestParallelAPSPMatchesSequential(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		g := GNP(r, 2+r.Intn(60), 0.15)
		n := g.N()
		dm := g.AllPairsDistances()
		dist := make([]uint16, n)
		queue := make([]int32, n)
		for s := 0; s < n; s++ {
			g.BFSFrom(s, dist, queue)
			for v := 0; v < n; v++ {
				if dm.Dist(s, v) != dist[v] {
					t.Fatalf("APSP mismatch at (%d,%d): %d vs %d", s, v, dm.Dist(s, v), dist[v])
				}
			}
		}
	}
}

func TestComplementInvolution(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		g := GNP(r, 1+r.Intn(30), 0.4)
		cc := g.Complement().Complement()
		if cc.N() != g.N() || cc.M() != g.M() {
			t.Fatal("complement of complement changed size")
		}
		for _, e := range g.Edges() {
			if !cc.HasEdge(e[0], e[1]) {
				t.Fatal("complement of complement lost an edge")
			}
		}
	}
}

func TestComplementEdgeCount(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(25)
		g := GNP(r, n, 0.5)
		return g.M()+g.Complement().M() == n*(n-1)/2
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPower(t *testing.T) {
	p := Path(5)
	p2 := p.Power(2)
	// P5²: i~j iff |i-j| ≤ 2.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			want := j-i <= 2
			if p2.HasEdge(i, j) != want {
				t.Fatalf("P5² edge (%d,%d) = %v, want %v", i, j, p2.HasEdge(i, j), want)
			}
		}
	}
	// Power ≥ diameter gives the complete graph.
	full := p.Power(4)
	if full.M() != 10 {
		t.Fatalf("P5⁴ has %d edges, want 10", full.M())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	h := g.InducedSubgraph([]int{0, 1, 2, 3})
	if h.N() != 4 || h.M() != 3 {
		t.Fatalf("induced P4: n=%d m=%d", h.N(), h.M())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate vertices")
		}
	}()
	g.InducedSubgraph([]int{0, 0})
}

func TestGenerators(t *testing.T) {
	if Star(6).MaxDegree() != 5 {
		t.Fatal("star degree")
	}
	w := Wheel(7)
	if w.Degree(0) != 6 || w.Degree(1) != 3 {
		t.Fatal("wheel degrees")
	}
	if d, _ := w.Diameter(); d != 2 {
		t.Fatal("wheel diameter should be 2")
	}
	cm := CompleteMultipartite(2, 3, 1)
	if cm.N() != 6 || cm.M() != 2*3+2*1+3*1 {
		t.Fatalf("multipartite m=%d", cm.M())
	}
	r := rng.New(5)
	tr := RandomTree(r, 50)
	if tr.M() != 49 || !tr.IsConnected() {
		t.Fatal("random tree malformed")
	}
	gm := GNM(r, 20, 30)
	if gm.M() != 30 {
		t.Fatalf("GNM edges: %d", gm.M())
	}
	rc := RandomConnected(r, 40, 0.05)
	if !rc.IsConnected() {
		t.Fatal("RandomConnected disconnected")
	}
}

func TestRandomSmallDiameterGuarantee(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		k := 2 + r.Intn(4)
		g := RandomSmallDiameter(r, n, k, 0.05)
		if !g.IsConnected() {
			t.Fatalf("trial %d: disconnected", trial)
		}
		if d, _ := g.Diameter(); d > k {
			t.Fatalf("trial %d: diameter %d > k=%d (n=%d)", trial, d, k, n)
		}
	}
	// k=1 must yield complete graphs.
	g := RandomSmallDiameter(r, 10, 1, 0)
	if g.M() != 45 {
		t.Fatal("k=1 should give K_n")
	}
}

func TestRandomDiameter2(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		g := RandomDiameter2(r, 3+r.Intn(30), 0.3)
		if d, conn := g.Diameter(); !conn || d > 2 {
			t.Fatalf("diameter %d", d)
		}
	}
}

func TestRandomSplitDiameter(t *testing.T) {
	r := rng.New(8)
	for trial := 0; trial < 20; trial++ {
		g := RandomSplit(r, 2+r.Intn(10), r.Intn(15), 0.3)
		if d, conn := g.Diameter(); !conn || d > 3 {
			t.Fatalf("split graph diameter %d conn %v", d, conn)
		}
	}
}

func TestHamiltonDP(t *testing.T) {
	if !Cycle(5).HasHamiltonianCycle() {
		t.Fatal("C5 has a Hamiltonian cycle")
	}
	if Path(5).HasHamiltonianCycle() {
		t.Fatal("P5 has no Hamiltonian cycle")
	}
	if !Path(5).HasHamiltonianPath() {
		t.Fatal("P5 has a Hamiltonian path")
	}
	if !Path(5).HasHamiltonianPathBetween(0, 4) {
		t.Fatal("P5 path 0→4 exists")
	}
	if Path(5).HasHamiltonianPathBetween(0, 2) {
		t.Fatal("P5 has no Hamiltonian path 0→2")
	}
	if Star(5).HasHamiltonianPath() {
		t.Fatal("K_{1,4} has no Hamiltonian path")
	}
	if !Complete(6).HasHamiltonianCycle() {
		t.Fatal("K6 is Hamiltonian")
	}
}

func TestHamPathGadgetEquivalence(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(6)
		g := GNP(r, n, 0.5)
		want := g.HasHamiltonianCycle()
		gadget, w, wp := HamPathGadget(g, r.Intn(n))
		got := gadget.HasHamiltonianPathBetween(w, wp)
		if got != want {
			t.Fatalf("trial %d: gadget path=%v, ham cycle=%v", trial, got, want)
		}
	}
}

func TestFigure1Graph(t *testing.T) {
	g := Figure1Graph()
	if g.N() != 5 || g.M() != 5 {
		t.Fatalf("figure 1: n=%d m=%d", g.N(), g.M())
	}
	if d, _ := g.Diameter(); d != 3 {
		t.Fatalf("figure 1 diameter %d, want 3", d)
	}
}

func TestIORoundTrip(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 10; trial++ {
		g := GNP(r, 1+r.Intn(20), 0.3)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("roundtrip size changed: %v vs %v", h, g)
		}
		for _, e := range g.Edges() {
			if !h.HasEdge(e[0], e[1]) {
				t.Fatal("roundtrip lost edge")
			}
		}
	}
}

func TestReadBareFormat(t *testing.T) {
	g, err := Read(strings.NewReader("4 3\n0 1\n1 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("bare format: %v", g)
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := Read(strings.NewReader("e 1 2\n")); err == nil {
		t.Fatal("expected error on edge before header")
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(5)
	if ecc, far, reached := g.Eccentricity(0); ecc != 4 || far != 4 || reached != 5 {
		t.Fatalf("Eccentricity(0) = (%d, %d, %d), want (4, 4, 5)", ecc, far, reached)
	}
	if ecc, far, reached := g.Eccentricity(2); ecc != 2 || (far != 0 && far != 4) || reached != 5 {
		t.Fatalf("Eccentricity(2) = (%d, %d, %d), want (2, 0 or 4, 5)", ecc, far, reached)
	}
	// Two components: 0–1–2 and 3–4.
	h := New(5)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(3, 4)
	if ecc, far, reached := h.Eccentricity(1); ecc != 1 || reached != 3 || (far != 0 && far != 2) {
		t.Fatalf("Eccentricity(1) = (%d, %d, %d), want (1, 0 or 2, 3)", ecc, far, reached)
	}
	if ecc, far, reached := h.Eccentricity(4); ecc != 1 || far != 3 || reached != 2 {
		t.Fatalf("Eccentricity(4) = (%d, %d, %d), want (1, 3, 2)", ecc, far, reached)
	}
}

func TestCograph(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		g := RandomCograph(r, 2+r.Intn(20))
		if !g.IsConnected() {
			t.Fatal("top-level join must connect the cograph")
		}
		// Cographs are P4-free; verify on small ones by brute force.
		if g.N() <= 12 {
			if hasInducedP4(g) {
				t.Fatal("cograph contains induced P4")
			}
		}
	}
}

func hasInducedP4(g *Graph) bool {
	n := g.N()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				for d := 0; d < n; d++ {
					if a == b || a == c || a == d || b == c || b == d || c == d {
						continue
					}
					if g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(c, d) &&
						!g.HasEdge(a, c) && !g.HasEdge(a, d) && !g.HasEdge(b, d) {
						return true
					}
				}
			}
		}
	}
	return false
}
