package tsp

import (
	"context"
	"slices"
	"testing"

	"lpltsp/internal/rng"
)

// weightedInstance builds an instance with arbitrary symmetric weights in
// the form production solves: the distinct off-diagonal weights,
// ascending, become the distances 1…K of a uint16 matrix and the class
// weights of NewClassInstance, so every distance 1…maxDist occurs as its
// contract requires. w is called once per pair i < j, in row order.
func weightedInstance(n int, w func(i, j int) int64) *Instance {
	upper := make([]int64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			upper = append(upper, w(i, j))
		}
	}
	classes := slices.Compact(slices.Sorted(slices.Values(upper)))
	dist := make([]uint16, n*n)
	e := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rank, _ := slices.BinarySearch(classes, upper[e])
			dist[i*n+j], dist[j*n+i] = uint16(rank+1), uint16(rank+1)
			e++
		}
	}
	return NewClassInstance(n, dist, len(classes), classes)
}

// randomInstance returns a random symmetric instance with weights in
// [1, maxW].
func randomInstance(r *rng.RNG, n int, maxW int) *Instance {
	return weightedInstance(n, func(i, j int) int64 { return int64(1 + r.Intn(maxW)) })
}

// randomMetricInstance returns a random instance with weights in
// {lo..2lo}, which satisfies the triangle inequality (as the paper's
// reduced instances do).
func randomMetricInstance(r *rng.RNG, n int, lo int) *Instance {
	return weightedInstance(n, func(i, j int) int64 { return int64(lo + r.Intn(lo+1)) })
}

// brutePath finds the optimal Hamiltonian path cost under cost by
// enumerating all permutations of n vertices (free endpoints).
func brutePath(n int, cost func(Tour) int64) int64 {
	perm := make(Tour, n)
	for i := range perm {
		perm[i] = i
	}
	best := int64(-1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			c := cost(perm)
			if best < 0 || c < best {
				best = c
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestHeldKarpPathVsBruteForce(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(8)
		ins := randomInstance(r, n, 30)
		tour, cost, err := HeldKarpPath(ins)
		if err != nil {
			t.Fatal(err)
		}
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatal(err)
		}
		if got := ins.PathCost(tour); got != cost {
			t.Fatalf("reported cost %d != recomputed %d", cost, got)
		}
		if want := brutePath(n, ins.PathCost); cost != want {
			t.Fatalf("trial %d n=%d: HK path %d, brute %d", trial, n, cost, want)
		}
	}
}

func TestHeldKarpSmallSizes(t *testing.T) {
	ins := weightedInstance(0, nil)
	tour, cost, err := HeldKarpPath(ins)
	if err != nil || len(tour) != 0 || cost != 0 {
		t.Fatalf("n=0: %v %v %v", tour, cost, err)
	}
	ins = weightedInstance(1, nil)
	tour, cost, err = HeldKarpPath(ins)
	if err != nil || len(tour) != 1 || cost != 0 {
		t.Fatalf("n=1: %v %v %v", tour, cost, err)
	}
	ins = weightedInstance(2, func(i, j int) int64 { return 7 })
	_, cost, err = HeldKarpPath(ins)
	if err != nil || cost != 7 {
		t.Fatalf("n=2: cost %d err %v", cost, err)
	}
}

func TestHeldKarpRejectsHugeN(t *testing.T) {
	ins := weightedInstance(HeldKarpMaxN+1, func(i, j int) int64 { return 1 })
	if _, _, err := HeldKarpPath(ins); err == nil {
		t.Fatal("expected size-limit error")
	}
}

func TestBranchAndBoundMatchesHeldKarp(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(9)
		ins := randomMetricInstance(r, n, 1+r.Intn(3))
		_, hk, err := HeldKarpPath(ins)
		if err != nil {
			t.Fatal(err)
		}
		tour, st, err := branchAndBoundPath(context.Background(), ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		bb := st.Cost
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatal(err)
		}
		if hk != bb {
			t.Fatalf("trial %d n=%d: BnB %d != HK %d", trial, n, bb, hk)
		}
	}
}

func TestChristofidesPathRatio(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(9)
		ins := randomMetricInstance(r, n, 1+r.Intn(4))
		if !ins.IsMetric() {
			t.Fatal("generator must be metric")
		}
		tour, cost, err := ChristofidesPath(ins)
		if err != nil {
			t.Fatal(err)
		}
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatal(err)
		}
		_, opt, _ := HeldKarpPath(ins)
		if float64(cost) > 1.5*float64(opt)+1e-9 {
			t.Fatalf("trial %d n=%d: christofides-path %d > 1.5×opt (%d)", trial, n, cost, opt)
		}
	}
}

func TestTwoOptNeverWorsens(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(30)
		ins := randomInstance(r, n, 100)
		tour := Tour(r.Perm(n))
		before := ins.PathCost(tour)
		delta := TwoOptPath(ins, tour)
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatal(err)
		}
		after := ins.PathCost(tour)
		if after != before+delta {
			t.Fatalf("delta accounting: before=%d delta=%d after=%d", before, delta, after)
		}
		if after > before {
			t.Fatalf("2-opt worsened: %d -> %d", before, after)
		}
	}
}

func TestOrOptNeverWorsens(t *testing.T) {
	r := rng.New(8)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(30)
		ins := randomInstance(r, n, 100)
		tour := Tour(r.Perm(n))
		before := ins.PathCost(tour)
		delta := OrOptPath(ins, tour)
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatal(err)
		}
		after := ins.PathCost(tour)
		if after != before+delta {
			t.Fatalf("delta accounting: before=%d delta=%d after=%d", before, delta, after)
		}
		if after > before {
			t.Fatalf("or-opt worsened: %d -> %d", before, after)
		}
	}
}

func TestChainedFindsOptimumOnSmall(t *testing.T) {
	r := rng.New(9)
	misses := 0
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(8)
		ins := randomMetricInstance(r, n, 2)
		_, opt, _ := HeldKarpPath(ins)
		tour, cost := ChainedLocalSearch(ins, &ChainedOptions{Restarts: 4, Kicks: 25, Seed: uint64(trial) + 1})
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatal(err)
		}
		if cost < opt {
			t.Fatalf("heuristic beat the optimum: %d < %d", cost, opt)
		}
		if cost != opt {
			misses++
		}
	}
	if misses > 2 {
		t.Fatalf("chained search missed the optimum on %d/20 small metric instances", misses)
	}
}

func TestConstructionValidity(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(40)
		ins := randomInstance(r, n, 50)
		for _, tour := range []Tour{
			NearestNeighborFrom(ins, 0),
			GreedyEdgePath(ins),
		} {
			if err := ins.ValidateTour(tour); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		tour, cost, starts := nearestNeighborBest(context.Background(), ins)
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatal(err)
		}
		if cost != ins.PathCost(tour) || starts != int64(n) {
			t.Fatalf("nearestNeighborBest: cost %d (path %d), %d starts", cost, ins.PathCost(tour), starts)
		}
	}
}

func TestSolveDispatch(t *testing.T) {
	r := rng.New(11)
	ins := randomMetricInstance(r, 9, 2)
	_, opt, _ := HeldKarpPath(ins)
	for _, algo := range Algorithms() {
		tour, cost, err := Solve(ins, algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if cost < opt {
			t.Fatalf("%s returned cost %d below optimum %d", algo, cost, opt)
		}
		if cost != ins.PathCost(tour) {
			t.Fatalf("%s: reported cost %d != path cost %d", algo, cost, ins.PathCost(tour))
		}
	}
	if _, _, err := Solve(ins, "nope", nil); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

// symmetricInstance builds the instance of the weight matrix w.
func symmetricInstance(w [][]int64) *Instance {
	return weightedInstance(len(w), func(i, j int) int64 { return w[i][j] })
}

func TestIsMetric(t *testing.T) {
	ins := symmetricInstance([][]int64{{0, 1, 3}, {1, 0, 1}, {3, 1, 0}}) // violates the triangle inequality
	if ins.IsMetric() {
		t.Fatal("expected non-metric")
	}
	ins = symmetricInstance([][]int64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}})
	if !ins.IsMetric() {
		t.Fatal("expected metric")
	}
}

func TestMinMaxWeight(t *testing.T) {
	ins := symmetricInstance([][]int64{{0, 2, 3}, {2, 0, 5}, {3, 5, 0}})
	min, max := ins.MinMaxWeight()
	if min != 2 || max != 5 {
		t.Fatalf("min=%d max=%d, want 2 and 5", min, max)
	}
	if min, max := weightedInstance(1, nil).MinMaxWeight(); min != 0 || max != 0 {
		t.Fatalf("n=1: min=%d max=%d, want 0 and 0", min, max)
	}
}
