package graph

import (
	"fmt"
	"testing"

	"lpltsp/internal/rng"
)

// BenchmarkAPSPKernels times each kernel alone over every source on one
// goroutine — the sweep over all batches, and scalar BFS from every
// source — and reports the first batch's sharing, the (source, vertex)
// pairs it resolved per vertex activation, which the sharing rule reads.
// The shapes span the rule: small-diameter graphs that share nearly every
// visit, trees, and grids and a path where an activation resolves about
// one source.
func BenchmarkAPSPKernels(b *testing.B) {
	for _, sh := range []struct {
		name string
		g    *Graph
	}{
		{"smalldiam/n=96", RandomSmallDiameter(rng.New(1), 96, 3, 0.1)},
		{"smalldiam/n=1024", RandomSmallDiameter(rng.New(2), 1024, 3, 0.1)},
		{"diameter2/n=2048", RandomDiameter2(rng.New(3), 2048, 0.01)},
		{"tree/n=384", RandomTree(rng.New(4), 384)},
		{"tree/n=4096", RandomTree(rng.New(5), 4096)},
		{"grid/256x4", grid(256, 4)},
		{"grid/16x16", grid(16, 16)},
		{"grid/32x32", grid(32, 32)},
		{"grid/64x64", grid(64, 64)},
		{"path/n=4096", Path(4096)},
	} {
		g := sh.g
		n := g.N()
		cs := g.csrData()
		d := make([]uint16, n*n)
		sc := getSweepScratch(n)
		first := cs.sweep(0, d, sc)
		sharing := float64(first.pairs) / float64(first.activations)
		b.Run(sh.name+"/sweep", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < n; lo += batchSize {
					cs.sweep(lo, d, sc)
				}
			}
			b.ReportMetric(sharing, "sharing")
		})
		b.Run(sh.name+"/scalar", func(b *testing.B) {
			queue := make([]int32, n)
			for i := 0; i < b.N; i++ {
				for s := 0; s < n; s++ {
					cs.bfsFrom(s, d[s*n:(s+1)*n], queue)
				}
			}
			b.ReportMetric(sharing, "sharing")
		})
		putSweepScratch(sc)
	}
}

// FuzzAllPairsDistances maps the fuzz bytes to a graph of up to 200
// vertices — so several batches and both kernels occur — and checks every
// row of AllPairsDistances, and of each kernel alone, against the
// adjacency-list BFS, and Max against a scan of the matrix. The first two
// bytes pick n and a backbone: a path (the scalar side of the sharing
// rule), spokes to four hubs (the sweep side), disjoint 40-vertex paths,
// or none; every following byte pair adds an edge.
func FuzzAllPairsDistances(f *testing.F) {
	f.Add([]byte{130, 0})
	f.Add([]byte{200, 1, 3, 150, 7, 66})
	f.Add([]byte{64, 2, 0, 63})
	f.Add([]byte{65, 3})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%200
		g := New(n)
		switch data[1] % 4 {
		case 0: // a path
			for v := 1; v < n; v++ {
				g.AddEdge(v-1, v)
			}
		case 1: // spokes to a few hubs
			for v := 4; v < n; v++ {
				g.AddEdge(v, v%4)
			}
		case 2: // disjoint paths of 40 vertices
			for v := 1; v < n; v++ {
				if v%40 != 0 {
					g.AddEdge(v-1, v)
				}
			}
		}
		for i := 2; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				g.AddEdge(u, v)
			}
		}
		checkAPSP(t, fmt.Sprintf("n=%d shape=%d", n, data[1]%4), g)
	})
}

// TestConnectedComponentsContract: components are sorted, ordered by
// smallest vertex, partition the vertices, and each is exactly the set
// one BFS reaches from its first vertex.
func TestConnectedComponentsContract(t *testing.T) {
	gs := append(csrFamilies(t), New(300), matching(300))
	for gi, g := range gs {
		n := g.N()
		comps := g.ConnectedComponents()
		dist := make([]uint16, n)
		queue := make([]int32, n)
		seen := make([]bool, n)
		prevFirst := -1
		for ci, c := range comps {
			if len(c) == 0 || c[0] <= prevFirst {
				t.Fatalf("graph %d: component %d = %v out of order", gi, ci, c)
			}
			prevFirst = c[0]
			reached := g.BFSFrom(c[0], dist, queue)
			if reached != len(c) {
				t.Fatalf("graph %d: component %d has %d vertices, BFS reaches %d", gi, ci, len(c), reached)
			}
			for i, v := range c {
				if i > 0 && v <= c[i-1] {
					t.Fatalf("graph %d: component %d not ascending: %v", gi, ci, c)
				}
				if dist[v] == Unreachable || seen[v] {
					t.Fatalf("graph %d: vertex %d misplaced in component %d", gi, v, ci)
				}
				seen[v] = true
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("graph %d: vertex %d in no component", gi, v)
			}
		}
	}
}

// matching builds a perfect matching on n (even) vertices: n/2 components.
func matching(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v += 2 {
		g.AddEdge(v, v+1)
	}
	return g
}

func BenchmarkConnectedComponents(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"edgeless/n=4096", New(4096)},
		{"matching/n=4096", matching(4096)},
		{"smalldiam/n=1024", RandomSmallDiameter(rng.New(2), 1024, 3, 4.0/1024)},
	} {
		tc.g.Normalize()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.g.ConnectedComponents()
			}
		})
	}
}

// TestDistMatrixGraph: the distance-layer graph has exactly the pairs at
// the selected distances, sorted and deduplicated like a graph built by
// AddEdge, on connected and disconnected inputs; on a diameter-2 graph the
// distance-2 layer is the complement.
func TestDistMatrixGraph(t *testing.T) {
	r := rng.New(9)
	gs := append(csrFamilies(t), New(5), matching(12), RandomDiameter2(r, 40, 0.3))
	for gi, g := range gs {
		dm := g.AllPairsDistances()
		diam, _ := dm.Max()
		for mask := 0; mask < 1<<min(diam+1, 4); mask++ {
			at := make([]bool, min(diam+1, 4))
			for d := range at {
				at[d] = mask&(1<<d) != 0
			}
			h := dm.Graph(at)
			want := New(g.N())
			for u := 0; u < g.N(); u++ {
				for v := u + 1; v < g.N(); v++ {
					if d := int(dm.Dist(u, v)); d < len(at) && at[d] {
						want.AddEdge(u, v)
					}
				}
			}
			if h.N() != want.N() || h.M() != want.M() {
				t.Fatalf("graph %d, at %v: n=%d m=%d, want n=%d m=%d", gi, at, h.N(), h.M(), want.N(), want.M())
			}
			for u := 0; u < g.N(); u++ {
				if got, exp := fmt.Sprint(h.Neighbors(u)), fmt.Sprint(want.Neighbors(u)); got != exp {
					t.Fatalf("graph %d, at %v, vertex %d: neighbours %s, want %s", gi, at, u, got, exp)
				}
			}
		}
	}
	g := RandomDiameter2(r, 60, 0.25)
	if d, disc := g.AllPairsDistances().Max(); d != 2 || disc {
		t.Fatalf("diameter %d (disconnected %v), want 2", d, disc)
	}
	h, c := g.AllPairsDistances().Graph([]bool{false, false, true}), g.Complement()
	if fmt.Sprint(h.Edges()) != fmt.Sprint(c.Edges()) {
		t.Fatal("the distance-2 layer of a diameter-2 graph differs from its complement")
	}
}
