package tsp

import (
	"cmp"
	"slices"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/mst"
	"lpltsp/internal/rng"
)

// denseWeights is the test-side oracle of an instance's weights: the full
// n×n matrix of the weight function the instance was built from, computed
// without it.
type denseWeights [][]int64

func (w denseWeights) pathCost(t Tour) int64 {
	var c int64
	for i := 0; i+1 < len(t); i++ {
		c += w[t[i]][t[i+1]]
	}
	return c
}

// minMax scans the upper triangle.
func (w denseWeights) minMax() (lo, hi int64) {
	if len(w) < 2 {
		return 0, 0
	}
	lo = w[0][1]
	for i := range w {
		for j := i + 1; j < len(w); j++ {
			lo, hi = min(lo, w[i][j]), max(hi, w[i][j])
		}
	}
	return lo, hi
}

// neighbors lists every vertex but v sorted by (weight, index), cut to kk
// (at most n−1).
func (w denseWeights) neighbors(v, kk int) []int32 {
	var out []int32
	for u := range w {
		if u != v {
			out = append(out, int32(u))
		}
	}
	slices.SortStableFunc(out, func(a, b int32) int { return cmp.Compare(w[v][a], w[v][b]) })
	return out[:min(kk, len(out))]
}

// classInstancePair builds an instance from a random small-diameter
// graph's distance matrix together with its oracle: the class weights
// over the graph's BFS distances. classWeights deliberately contains
// duplicates so weight classes collapse.
func classInstancePair(r *rng.RNG, n, k int) (*Instance, denseWeights) {
	g := graph.RandomSmallDiameter(r, n, k, 0.3)
	dm := g.AllPairsDistances()
	diam, disc := dm.Max()
	if disc {
		// RandomSmallDiameter guarantees connectivity; belt and braces.
		panic("disconnected test graph")
	}
	classWeights := make([]int64, k)
	pmin := int64(1 + r.Intn(3))
	for i := range classWeights {
		classWeights[i] = pmin + int64(r.Intn(2)) // duplicates likely
	}
	oracle := make(denseWeights, n)
	for i := range oracle {
		oracle[i] = make([]int64, n)
		for j := range oracle[i] {
			if i != j {
				oracle[i][j] = classWeights[dm.Dist(i, j)-1]
			}
		}
	}
	return NewClassInstance(n, dm.Data(), diam, classWeights), oracle
}

func TestClassInstanceAgreesWithDense(t *testing.T) {
	r := rng.New(301)
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(30)
		k := 2 + r.Intn(3)
		ins, dense := classInstancePair(r, n, k)
		if ins.Classes() == 0 || ins.Classes() > k {
			t.Fatalf("Classes() = %d with k = %d", ins.Classes(), k)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if ins.Weight(i, j) != dense[i][j] {
					t.Fatalf("Weight(%d,%d): instance %d oracle %d", i, j, ins.Weight(i, j), dense[i][j])
				}
			}
		}
		cmin, cmax := ins.MinMaxWeight()
		dmin, dmax := dense.minMax()
		if cmin != dmin || cmax != dmax {
			t.Fatalf("MinMaxWeight: instance (%d,%d) oracle (%d,%d)", cmin, cmax, dmin, dmax)
		}
		for rep := 0; rep < 5; rep++ {
			tour := Tour(r.Perm(n))
			if ins.PathCost(tour) != dense.pathCost(tour) {
				t.Fatalf("PathCost differs on %v", tour)
			}
		}
	}
}

// TestClassInstanceImmutable: an instance copies the class weights it is
// given, and no engine writes through the distance matrix it shares.
func TestClassInstanceImmutable(t *testing.T) {
	r := rng.New(302)
	g := graph.RandomSmallDiameter(r, 12, 3, 0.3)
	dm := g.AllPairsDistances()
	diam, _ := dm.Max()
	cw := []int64{2, 2, 1}
	ins := NewClassInstance(12, dm.Data(), diam, cw)
	want := make([]int64, 144)
	for i := range want {
		want[i] = ins.Weight(i/12, i%12)
	}
	matrix := slices.Clone(dm.Data())
	cw[0], cw[1], cw[2] = 9, 9, 9
	for _, algo := range Algorithms() {
		if _, _, err := Solve(ins, algo, nil); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !slices.Equal(dm.Data(), matrix) {
			t.Fatalf("%s wrote to the shared distance matrix", algo)
		}
	}
	for i, w := range want {
		if got := ins.Weight(i/12, i%12); got != w {
			t.Fatalf("Weight(%d,%d) = %d after the caller's weights changed, want %d", i/12, i%12, got, w)
		}
	}
}

// TestNewClassInstanceRejectsBadMatrices pins the constructor's O(1)
// checks. It does not scan the matrix, so a bad diagonal or an
// off-diagonal entry past the largest distance is the caller's to rule
// out, as a BFS matrix does.
func TestNewClassInstanceRejectsBadMatrices(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("short matrix", func() { NewClassInstance(3, make([]uint16, 8), 2, []int64{1, 2}) })
	mustPanic("largest distance beyond classes", func() {
		NewClassInstance(2, []uint16{0, 3, 3, 0}, 3, []int64{1, 2})
	})
	mustPanic("no distance between two vertices", func() {
		NewClassInstance(2, []uint16{0, 0, 0, 0}, 0, []int64{1})
	})
	mustPanic("negative largest distance", func() {
		NewClassInstance(1, []uint16{0}, -1, []int64{1})
	})
}

// TestHeldKarpLargeDistanceValues covers compact instances whose distance
// values exceed HeldKarpMaxN, which no BFS matrix small enough for the DP
// has (this one skips distances 1…29, so its classes include weights no
// pair has): the DP must translate them through the lut, not assume
// diam < n.
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
	ins := NewClassInstance(n, dist, big, cw)
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

// nearestNeighbors is the slice-of-slices form of nearestNeighborsInto (it
// copies out of the pooled scratch), clamping k to [0, n-1].
func nearestNeighbors(ins *Instance, k int) [][]int32 {
	n := ins.n
	kk := max(min(k, n-1), 0)
	sc := getTwoOptScratch(n, kk, ins.Classes())
	defer putTwoOptScratch(sc)
	flat := nearestNeighborsInto(ins, kk, sc)
	out := make([][]int32, n)
	for v := range out {
		out[v] = append([]int32(nil), flat[v*kk:(v+1)*kk]...)
	}
	return out
}

// TestNearestNeighborsCompactMatchesDense asserts the bucket-based neighbor
// lists are exactly the oracle's (weight, index)-sorted lists.
func TestNearestNeighborsCompactMatchesDense(t *testing.T) {
	r := rng.New(303)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(40)
		k := 2 + r.Intn(4)
		ins, dense := classInstancePair(r, n, k)
		for _, kk := range []int{1, 3, 8, n - 1} {
			for v, got := range nearestNeighbors(ins, kk) {
				if want := dense.neighbors(v, kk); !slices.Equal(got, want) {
					t.Fatalf("k=%d vertex %d: got %v, oracle %v", kk, v, got, want)
				}
			}
		}
	}
}

// TestNearestNeighborsZeroK pins the k ≤ 0 edge case: empty lists, no
// panic.
func TestNearestNeighborsZeroK(t *testing.T) {
	r := rng.New(306)
	ins, _ := classInstancePair(r, 6, 2)
	for _, k := range []int{0, -3} {
		nb := nearestNeighbors(ins, k)
		for v, list := range nb {
			if len(list) != 0 {
				t.Fatalf("k=%d vertex %d: got %d neighbors, want 0", k, v, len(list))
			}
		}
	}
}

// TestGreedyEdgePathMSTMatchesPrim: the Kruskal weight taken inside the
// greedy sweep equals Prim's MST weight, on graph-built instances and on
// arbitrary-weight ones, and the sweep's path is GreedyEdgePath's.
func TestGreedyEdgePathMSTMatchesPrim(t *testing.T) {
	r := rng.New(305)
	var prim mst.PrimScratch
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(60)
		graphBuilt, _ := classInstancePair(r, n, 2+r.Intn(4))
		for _, ins := range []*Instance{graphBuilt, randomInstance(r, n, 1+r.Intn(50))} {
			tour, got := GreedyEdgePathMST(ins)
			if want := prim.Total(n, ins.Weight); got != want {
				t.Fatalf("trial %d n=%d classes=%d: Kruskal %d, Prim %d", trial, n, ins.Classes(), got, want)
			}
			if !slices.Equal(tour, GreedyEdgePath(ins)) {
				t.Fatalf("trial %d n=%d: the sweep's path differs from GreedyEdgePath", trial, n)
			}
		}
	}
}

// TestGreedyEdgeCompactMatchesDense asserts the per-class sweep visits
// edges in the canonical (weight, u, v) order of the counting-sort oracle,
// and therefore builds the identical path.
func TestGreedyEdgeCompactMatchesDense(t *testing.T) {
	r := rng.New(304)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(40)
		k := 2 + r.Intn(4)
		ins, _ := classInstancePair(r, n, k)
		got := GreedyEdgePath(ins)
		if err := ins.ValidateTour(got); err != nil {
			t.Fatal(err)
		}
		if want, _ := countingSortSweep(ins); !slices.Equal(got, want) {
			t.Fatalf("tours differ: sweep %v oracle %v", got, want)
		}
	}
}

// TestEnginesCompactMatchesDense runs the deterministic engine family and
// checks each against the oracle: the reported cost is the tour's cost
// under the oracle weights, no engine beats the optimum (brute force over
// the oracle up to 9 vertices, Held–Karp beyond), Held–Karp meets it, and
// a repeat solve returns the identical tour.
func TestEnginesCompactMatchesDense(t *testing.T) {
	r := rng.New(305)
	deterministic := []Algorithm{AlgoGreedyEdge, AlgoTwoOpt, AlgoThreeOpt, AlgoChristofides, AlgoHeldKarp}
	for trial := 0; trial < 8; trial++ {
		n := 5 + r.Intn(10)
		ins, dense := classInstancePair(r, n, 2+r.Intn(2))
		opt := int64(-1)
		if n <= 9 {
			opt = brutePath(n, dense.pathCost)
		} else if _, hk, err := HeldKarpPath(ins); err == nil {
			opt = hk
		}
		for _, algo := range deterministic {
			tour, cost, err := Solve(ins, algo, nil)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if err := ins.ValidateTour(tour); err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if want := dense.pathCost(tour); cost != want {
				t.Fatalf("%s: cost %d, oracle prices the tour at %d", algo, cost, want)
			}
			if opt < 0 || cost < opt || (algo == AlgoHeldKarp && cost != opt) {
				t.Fatalf("%s: cost %d against optimum %d", algo, cost, opt)
			}
			again, _, _ := Solve(ins, algo, nil)
			if !slices.Equal(tour, again) {
				t.Fatalf("%s: tours differ: %v vs %v", algo, tour, again)
			}
		}
	}
}
