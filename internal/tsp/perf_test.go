package tsp

import (
	"context"
	"fmt"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

// Benchmarks for the weight-class hot paths. Run with
//
//	go test -bench 'NearestNeighborLists|GreedyEdgePath|TwoOptFast' -benchmem ./internal/tsp/
//
// PR 2 recorded their compact halves against a dense int64 matrix in
// BENCH_PR2.json at the repo root; only the compact form remains.

func benchInstance(n, k int) *Instance {
	g := graph.RandomSmallDiameter(rng.New(77), n, k, 4.0/float64(n))
	dm := g.AllPairsDistances()
	diam, _ := dm.Max()
	classWeights := []int64{2, 2, 1, 1}[:k]
	return NewClassInstance(n, dm.Data(), diam, classWeights)
}

func BenchmarkNearestNeighborLists(b *testing.B) {
	for _, n := range []int{200, 800} {
		ins := benchInstance(n, 4)
		b.Run(fmt.Sprintf("n=%d/k=12", n), func(b *testing.B) {
			b.ReportAllocs()
			sc := getTwoOptScratch(n, 12, ins.Classes())
			defer putTwoOptScratch(sc)
			for i := 0; i < b.N; i++ {
				nearestNeighborsInto(ins, 12, sc)
			}
		})
	}
}

func BenchmarkGreedyEdgePath(b *testing.B) {
	ins := benchInstance(800, 4)
	b.Run("n=800", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GreedyEdgePath(ins)
		}
	})
}

func BenchmarkTwoOptFast(b *testing.B) {
	ins := benchInstance(400, 4)
	b.Run("n=400", func(b *testing.B) {
		b.ReportAllocs()
		r := rng.New(5)
		tour := Tour(r.Perm(400))
		work := make(Tour, 400)
		for i := 0; i < b.N; i++ {
			copy(work, tour)
			twoOptPathFast(context.Background(), ins, work, 12)
		}
	})
}

// BenchmarkHeldKarpPooled tracks the exact DP's steady-state allocation
// behavior (tables pooled across solves).
func BenchmarkHeldKarpPooled(b *testing.B) {
	ins := benchInstance(16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := HeldKarpPath(ins); err != nil {
			b.Fatal(err)
		}
	}
}
