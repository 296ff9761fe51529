package graph

import (
	"slices"
	"sync"
	"testing"
)

// TestConcurrentQueriesOnUnnormalizedGraph is the regression test for the
// lazy-normalization race: several goroutines issue distance queries on a
// graph that has not been normalized yet, so all of them reach Normalize
// concurrently. At n = 160 the APSP calls are three-batch sweeps, so their
// helpers run beside the other queries. Run with -race.
func TestConcurrentQueriesOnUnnormalizedGraph(t *testing.T) {
	for _, n := range []int{64, 160} {
		build := func() *Graph {
			g := New(n)
			for u := 0; u < n-1; u++ {
				g.AddEdge(u, u+1)
				g.AddEdge(u, (u*7+3)%n)
				// Duplicate edges keep the graph un-normalized until queried.
				g.AddEdge(u, u+1)
			}
			return g
		}

		ref := build()
		ref.Normalize()
		wantM := ref.M()
		want := ref.AllPairsDistances()

		for trial := 0; trial < 10; trial++ {
			g := build()
			var wg sync.WaitGroup
			dms := make([]*DistMatrix, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					switch w % 4 {
					case 0:
						dms[w] = g.AllPairsDistances()
					case 1:
						dist := make([]uint16, g.N())
						queue := make([]int32, g.N())
						g.BFSFrom(w%g.N(), dist, queue)
					case 2:
						g.Degree(w % g.N())
					default:
						g.HasEdge(0, 1)
					}
				}(w)
			}
			wg.Wait()
			if g.M() != wantM {
				t.Fatalf("n=%d trial %d: M=%d after concurrent normalization, want %d", n, trial, g.M(), wantM)
			}
			for _, dm := range dms {
				if dm == nil {
					continue
				}
				d, disc := dm.Max()
				wd, wdisc := want.Max()
				if !slices.Equal(dm.Data(), want.Data()) || d != wd || disc != wdisc {
					t.Fatalf("n=%d trial %d: concurrent APSP differs from the serial one", n, trial)
				}
			}
		}
	}
}

// TestAllPairsDistancesMatchesSerialBFS pins the parallel matrix against
// row-by-row serial BFS.
func TestAllPairsDistancesMatchesSerialBFS(t *testing.T) {
	g := New(40)
	for u := 0; u < 39; u++ {
		g.AddEdge(u, u+1)
	}
	g.AddEdge(0, 20)
	g.AddEdge(5, 35)
	dm := g.AllPairsDistances()
	dist := make([]uint16, g.N())
	queue := make([]int32, g.N())
	for s := 0; s < g.N(); s++ {
		g.BFSFrom(s, dist, queue)
		for v := 0; v < g.N(); v++ {
			if dm.Dist(s, v) != dist[v] {
				t.Fatalf("dist(%d,%d): matrix %d, serial %d", s, v, dm.Dist(s, v), dist[v])
			}
		}
	}
}
