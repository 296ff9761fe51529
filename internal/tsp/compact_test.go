package tsp

import (
	"slices"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/mst"
	"lpltsp/internal/rng"
)

// classInstancePair builds a compact weight-class instance from a random
// small-diameter graph's distance matrix together with its densified twin.
// classWeights deliberately contains duplicates so weight classes collapse.
func classInstancePair(r *rng.RNG, n, k int) (*Instance, *Instance) {
	g := graph.RandomSmallDiameter(r, n, k, 0.3)
	dm := g.AllPairsDistances()
	if _, disc := dm.Max(); disc {
		// RandomSmallDiameter guarantees connectivity; belt and braces.
		panic("disconnected test graph")
	}
	classWeights := make([]int64, k)
	pmin := int64(1 + r.Intn(3))
	for i := range classWeights {
		classWeights[i] = pmin + int64(r.Intn(2)) // duplicates likely
	}
	compact := NewClassInstance(n, dm.Data(), classWeights)
	return compact, compact.Densify()
}

func TestClassInstanceAgreesWithDense(t *testing.T) {
	r := rng.New(301)
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(30)
		k := 2 + r.Intn(3)
		compact, dense := classInstancePair(r, n, k)
		if !compact.Compact() || dense.Compact() {
			t.Fatal("backing flags wrong")
		}
		if compact.Classes() == 0 || compact.Classes() > k {
			t.Fatalf("Classes() = %d with k = %d", compact.Classes(), k)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if compact.Weight(i, j) != dense.Weight(i, j) {
					t.Fatalf("Weight(%d,%d): compact %d dense %d", i, j, compact.Weight(i, j), dense.Weight(i, j))
				}
			}
		}
		cmin, cmax := compact.MinMaxWeight()
		dmin, dmax := dense.MinMaxWeight()
		if cmin != dmin || cmax != dmax {
			t.Fatalf("MinMaxWeight: compact (%d,%d) dense (%d,%d)", cmin, cmax, dmin, dmax)
		}
		for rep := 0; rep < 5; rep++ {
			tour := Tour(r.Perm(n))
			if compact.PathCost(tour) != dense.PathCost(tour) {
				t.Fatalf("PathCost differs on %v", tour)
			}
			if compact.CycleCost(tour) != dense.CycleCost(tour) {
				t.Fatalf("CycleCost differs on %v", tour)
			}
		}
	}
}

func TestClassInstanceImmutable(t *testing.T) {
	r := rng.New(302)
	compact, _ := classInstancePair(r, 6, 2)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on compact instance did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetWeight", func() { compact.SetWeight(0, 1, 9) })
	mustPanic("Row", func() { compact.Row(0) })
}

func TestNewClassInstanceRejectsBadMatrices(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("short matrix", func() { NewClassInstance(3, make([]uint16, 8), []int64{1, 2}) })
	mustPanic("nonzero diagonal", func() {
		NewClassInstance(2, []uint16{1, 1, 1, 0}, []int64{1})
	})
	mustPanic("distance beyond classes", func() {
		NewClassInstance(2, []uint16{0, 3, 3, 0}, []int64{1, 2})
	})
	mustPanic("zero off-diagonal", func() {
		NewClassInstance(2, []uint16{0, 0, 0, 0}, []int64{1})
	})
}

// TestClassInstanceDistanceGaps covers hand-built matrices whose distance
// values have gaps (valid per NewClassInstance's contract, impossible for
// BFS-continuous reduction matrices): the class structure must reflect
// only weights that occur between some pair.
func TestClassInstanceDistanceGaps(t *testing.T) {
	// Distance 2 occurs, distance 1 never does; its weight 5 must not
	// surface anywhere.
	ins := NewClassInstance(2, []uint16{0, 2, 2, 0}, []int64{5, 1})
	if got := ins.Classes(); got != 1 {
		t.Fatalf("Classes() = %d, want 1 (distance 1 never occurs)", got)
	}
	min, max := ins.MinMaxWeight()
	if min != 1 || max != 1 {
		t.Fatalf("MinMaxWeight = (%d,%d), want (1,1)", min, max)
	}
	if w := ins.Weight(0, 1); w != 1 {
		t.Fatalf("Weight(0,1) = %d, want 1", w)
	}
}

// TestHeldKarpLargeDistanceValues covers compact instances whose distance
// values exceed HeldKarpMaxN (valid when enough classWeights are given):
// the DP must translate them through the lut, not assume diam < n.
func TestHeldKarpLargeDistanceValues(t *testing.T) {
	const big = 30 // > HeldKarpMaxN
	cw := make([]int64, big)
	for i := range cw {
		cw[i] = int64(i%2 + 1)
	}
	n := 4
	dist := make([]uint16, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				dist[i*n+j] = big
			}
		}
	}
	ins := NewClassInstance(n, dist, cw)
	tour, cost, err := HeldKarpPath(ins)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.ValidateTour(tour); err != nil {
		t.Fatal(err)
	}
	if want := int64(n-1) * cw[big-1]; cost != want {
		t.Fatalf("cost = %d, want %d", cost, want)
	}
}

// TestNearestNeighborsCompactMatchesDense asserts the bucket-based compact
// neighbor lists are exactly the dense (weight, index)-sorted lists.
func TestNearestNeighborsCompactMatchesDense(t *testing.T) {
	r := rng.New(303)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(40)
		k := 2 + r.Intn(4)
		compact, dense := classInstancePair(r, n, k)
		for _, kk := range []int{1, 3, 8, n - 1} {
			nc := nearestNeighbors(compact, kk)
			nd := nearestNeighbors(dense, kk)
			for v := range nc {
				if len(nc[v]) != len(nd[v]) {
					t.Fatalf("k=%d vertex %d: lengths %d vs %d", kk, v, len(nc[v]), len(nd[v]))
				}
				for i := range nc[v] {
					if nc[v][i] != nd[v][i] {
						t.Fatalf("k=%d vertex %d: compact %v dense %v", kk, v, nc[v], nd[v])
					}
				}
			}
		}
	}
}

// TestNearestNeighborsZeroK pins the k ≤ 0 edge case: empty lists, no
// panic, on both representations.
func TestNearestNeighborsZeroK(t *testing.T) {
	r := rng.New(306)
	compact, dense := classInstancePair(r, 6, 2)
	for _, ins := range []*Instance{compact, dense} {
		for _, k := range []int{0, -3} {
			nb := nearestNeighbors(ins, k)
			for v, list := range nb {
				if len(list) != 0 {
					t.Fatalf("k=%d vertex %d: got %d neighbors, want 0", k, v, len(list))
				}
			}
		}
	}
}

// TestGreedyEdgePathMSTMatchesPrim: the Kruskal weight taken inside the
// greedy sweep equals Prim's MST weight, on compact instances (counting
// sort) and on dense ones with arbitrary weights (comparison sort), and
// the sweep's path is GreedyEdgePath's.
func TestGreedyEdgePathMSTMatchesPrim(t *testing.T) {
	r := rng.New(305)
	var prim mst.PrimScratch
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(60)
		compact, _ := classInstancePair(r, n, 2+r.Intn(4))
		for _, ins := range []*Instance{compact, randomInstance(r, n, 1+r.Intn(50))} {
			tour, got := GreedyEdgePathMST(ins)
			if want := prim.Total(n, ins.Weight); got != want {
				t.Fatalf("trial %d n=%d compact=%v: Kruskal %d, Prim %d", trial, n, ins.Compact(), got, want)
			}
			if !slices.Equal(tour, GreedyEdgePath(ins)) {
				t.Fatalf("trial %d n=%d: the sweep's path differs from GreedyEdgePath", trial, n)
			}
		}
	}
}

// TestGreedyEdgeCompactMatchesDense asserts the counting-sorted compact
// edge sweep visits edges in the same canonical (weight, u, v) order as
// the dense comparison sort, and therefore builds the identical path.
func TestGreedyEdgeCompactMatchesDense(t *testing.T) {
	r := rng.New(304)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(40)
		k := 2 + r.Intn(4)
		compact, dense := classInstancePair(r, n, k)
		tc := GreedyEdgePath(compact)
		td := GreedyEdgePath(dense)
		if err := compact.ValidateTour(tc); err != nil {
			t.Fatal(err)
		}
		for i := range tc {
			if tc[i] != td[i] {
				t.Fatalf("tours differ: compact %v dense %v", tc, td)
			}
		}
	}
}

// TestEnginesCompactMatchesDense runs the deterministic engine family on
// both representations and demands identical tours.
func TestEnginesCompactMatchesDense(t *testing.T) {
	r := rng.New(305)
	deterministic := []Algorithm{AlgoGreedyEdge, AlgoTwoOpt, AlgoThreeOpt, AlgoChristofides, AlgoHeldKarp}
	for trial := 0; trial < 8; trial++ {
		n := 5 + r.Intn(10)
		compact, dense := classInstancePair(r, n, 2+r.Intn(2))
		for _, algo := range deterministic {
			tc, cc, err := Solve(compact, algo, nil)
			if err != nil {
				t.Fatalf("%s compact: %v", algo, err)
			}
			td, cd, err := Solve(dense, algo, nil)
			if err != nil {
				t.Fatalf("%s dense: %v", algo, err)
			}
			if cc != cd {
				t.Fatalf("%s: compact cost %d dense cost %d", algo, cc, cd)
			}
			for i := range tc {
				if tc[i] != td[i] {
					t.Fatalf("%s: tours differ: %v vs %v", algo, tc, td)
				}
			}
		}
	}
}
