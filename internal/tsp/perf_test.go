package tsp

import (
	"fmt"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

// Compact-vs-dense benchmarks for the weight-class hot paths. Run with
//
//	go test -bench 'CompactVsDense' -benchmem ./internal/tsp/
//
// PR 2 before/after numbers are recorded in BENCH_PR2.json at the repo
// root.

func benchPair(n, k int) (compact, dense *Instance) {
	g := graph.RandomSmallDiameter(rng.New(77), n, k, 4.0/float64(n))
	dm := g.AllPairsDistances()
	diam, _ := dm.Max()
	classWeights := []int64{2, 2, 1, 1}[:k]
	compact = NewClassInstance(n, dm.Data(), diam, classWeights)
	return compact, compact.Densify()
}

func BenchmarkNearestNeighborListsCompactVsDense(b *testing.B) {
	for _, n := range []int{200, 800} {
		compact, dense := benchPair(n, 4)
		for _, bc := range []struct {
			name string
			ins  *Instance
		}{{"compact", compact}, {"dense", dense}} {
			b.Run(fmt.Sprintf("%s/n=%d/k=12", bc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				sc := getTwoOptScratch(n, 12, bc.ins.Classes())
				defer putTwoOptScratch(sc)
				for i := 0; i < b.N; i++ {
					nearestNeighborsInto(bc.ins, 12, sc)
				}
			})
		}
	}
}

func BenchmarkGreedyEdgePathCompactVsDense(b *testing.B) {
	compact, dense := benchPair(800, 4)
	for _, bc := range []struct {
		name string
		ins  *Instance
	}{{"compact", compact}, {"dense", dense}} {
		b.Run(bc.name+"/n=800", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GreedyEdgePath(bc.ins)
			}
		})
	}
}

func BenchmarkTwoOptFastCompactVsDense(b *testing.B) {
	compact, dense := benchPair(400, 4)
	for _, bc := range []struct {
		name string
		ins  *Instance
	}{{"compact", compact}, {"dense", dense}} {
		b.Run(bc.name+"/n=400", func(b *testing.B) {
			b.ReportAllocs()
			r := rng.New(5)
			tour := Tour(r.Perm(400))
			work := make(Tour, 400)
			for i := 0; i < b.N; i++ {
				copy(work, tour)
				TwoOptPathFast(bc.ins, work, 12)
			}
		})
	}
}

// BenchmarkHeldKarpPooled tracks the exact DP's steady-state allocation
// behavior (tables pooled across solves).
func BenchmarkHeldKarpPooled(b *testing.B) {
	compact, _ := benchPair(16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := HeldKarpPath(compact); err != nil {
			b.Fatal(err)
		}
	}
}
