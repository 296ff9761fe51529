package pathpart

import (
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/modular"
	"lpltsp/internal/rng"
)

// TestCographPathsValidAndMinimum is the constructive closure of the
// recurrence: the built cover must verify AND achieve the recurrence
// count, which on small n also equals the exact DP.
func TestCographPathsValidAndMinimum(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 120; trial++ {
		n := 1 + r.Intn(16)
		g := graph.RandomCograph(r, n)
		paths, err := CographPaths(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Verify(g, paths); err != nil {
			t.Fatalf("trial %d (n=%d): invalid cover: %v", trial, n, err)
		}
		count, err := cotreeCount(modular.Decompose(g))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != count {
			t.Fatalf("trial %d (n=%d): constructed %d paths, recurrence says %d",
				trial, n, len(paths), count)
		}
		if n <= ExactMaxN {
			exact, err := Exact(g)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(exact); len(paths) != want {
				t.Fatalf("trial %d: constructed %d, DP %d", trial, len(paths), want)
			}
		}
	}
}

func TestCographPathsLargeScale(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 8; trial++ {
		n := 200 + r.Intn(600)
		g := graph.RandomCograph(r, n)
		paths, err := CographPaths(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(g, paths); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		count, err := cotreeCount(modular.Decompose(g))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != count {
			t.Fatalf("trial %d (n=%d): constructed %d, recurrence %d", trial, n, len(paths), count)
		}
	}
}

func TestCographPathsClassics(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K6", graph.Complete(6), 1},
		{"empty5", graph.New(5), 5},
		{"star6", graph.Star(6), 4},
		{"K33", graph.CompleteMultipartite(3, 3), 1},
		{"K14", graph.CompleteMultipartite(1, 4), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			paths, err := CographPaths(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tc.g, paths); err != nil {
				t.Fatal(err)
			}
			if len(paths) != tc.want {
				t.Fatalf("%d paths, want %d: %v", len(paths), tc.want, paths)
			}
		})
	}
}

func TestCographPathsRejectsNonCograph(t *testing.T) {
	if _, err := CographPaths(graph.Path(4)); err == nil {
		t.Fatal("P4 must be rejected")
	}
	// A prime node deep in the cotree: P4 joined to a triangle, in
	// parallel with a cograph.
	g := graph.New(12)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {4, 6}, {7, 8}, {8, 9}, {7, 9}, {10, 11}} {
		g.AddEdge(e[0], e[1])
	}
	for u := 0; u < 4; u++ {
		for v := 4; v < 7; v++ {
			g.AddEdge(u, v)
		}
	}
	if _, err := CographPaths(g); err == nil {
		t.Fatal("a P4 under a join must be rejected")
	}
	// Rejection stops at the first prime node, so a large random graph,
	// connected with a connected complement, costs two linear splits
	// rather than a full modular decomposition.
	big := graph.GNP(rng.New(3), 2000, 0.5)
	if _, err := CographPaths(big); err == nil {
		t.Fatal("G(2000, 1/2) must be rejected")
	}
}
