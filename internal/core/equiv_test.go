package core

import (
	"context"
	"slices"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
	"lpltsp/internal/tsp"
)

// These tests check the weight-class instance built by ReduceContext
// against a test-side oracle — p over the reduction's BFS matrix, the
// dense int64 weights the instance replaced — across the full engine
// table on randomized reduced instances.

func randomReduction(t *testing.T, r *rng.RNG, n, k int) *Reduction {
	t.Helper()
	g := graph.RandomSmallDiameter(r, n, k, 0.3)
	p := make(labeling.Vector, k)
	pmin := 1 + r.Intn(2)
	for i := range p {
		p[i] = pmin + r.Intn(pmin+1) // pmax ≤ 2·pmin, duplicates likely
	}
	red, err := Reduce(g, p)
	if err != nil {
		t.Fatalf("reduce n=%d k=%d p=%v: %v", n, k, p, err)
	}
	return red
}

// TestReduceProducesCompactInstance pins the weight-class form: at most
// dim(p) distinct weights, read live through Reduction.Dist.
func TestReduceProducesCompactInstance(t *testing.T) {
	r := rng.New(401)
	red := randomReduction(t, r, 20, 3)
	if c := red.Instance.Classes(); c < 1 || c > 3 {
		t.Fatalf("Classes() = %d, want within [1,3]", c)
	}
	// The instance is a live view over Reduction.Dist.
	for u := 0; u < red.G.N(); u++ {
		for v := 0; v < red.G.N(); v++ {
			want := int64(0)
			if u != v {
				want = int64(red.P[int(red.Dist.Dist(u, v))-1])
			}
			if got := red.Instance.Weight(u, v); got != want {
				t.Fatalf("Weight(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

// oracleWeights is the dense weight matrix of a reduction computed from
// its definition, w(u,v) = p[dist(u,v)-1], without the instance.
func oracleWeights(red *Reduction) [][]int64 {
	n := red.G.N()
	w := make([][]int64, n)
	for u := range w {
		w[u] = make([]int64, n)
		for v := range w[u] {
			if u != v {
				w[u][v] = int64(red.P[int(red.Dist.Dist(u, v))-1])
			}
		}
	}
	return w
}

func oraclePathCost(w [][]int64, t tsp.Tour) int64 {
	var c int64
	for i := 0; i+1 < len(t); i++ {
		c += w[t[i]][t[i+1]]
	}
	return c
}

// TestCompactDenseWeightAndCostAgreement checks Weight/PathCost/
// MinMaxWeight/metricity against the oracle on randomized reduced
// instances.
func TestCompactDenseWeightAndCostAgreement(t *testing.T) {
	r := rng.New(402)
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(30)
		k := 2 + r.Intn(3)
		red := randomReduction(t, r, n, k)
		ins := red.Instance
		dense := oracleWeights(red)
		dmin, dmax := dense[0][1], int64(0)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if ins.Weight(i, j) != dense[i][j] {
					t.Fatalf("Weight(%d,%d) disagrees", i, j)
				}
				if i != j {
					dmin, dmax = min(dmin, dense[i][j]), max(dmax, dense[i][j])
				}
			}
		}
		if cmin, cmax := ins.MinMaxWeight(); cmin != dmin || cmax != dmax {
			t.Fatalf("MinMaxWeight: (%d,%d) vs oracle (%d,%d)", cmin, cmax, dmin, dmax)
		}
		if !ins.IsMetric() {
			t.Fatal("reduced instance not metric")
		}
		for rep := 0; rep < 4; rep++ {
			tour := tsp.Tour(r.Perm(n))
			if ins.PathCost(tour) != oraclePathCost(dense, tour) {
				t.Fatalf("PathCost disagrees on %v", tour)
			}
		}
	}
}

// TestEngineRegistryCompactMatchesDense runs every engine of the table on
// reduced instances, with deterministic chained options and with the
// defaults. Every engine must report its tour's cost under the oracle
// weights and never beat the Held–Karp optimum; the exact engines must
// meet it; and every engine, the parallel nn and default-option chained
// included, must return the identical tour when asked again.
func TestEngineRegistryCompactMatchesDense(t *testing.T) {
	r := rng.New(403)
	detOpts := &tsp.SolveOptions{Chained: &tsp.ChainedOptions{Restarts: 1, Kicks: 8, Seed: 11}}
	exact := map[tsp.Algorithm]bool{tsp.AlgoExact: true, tsp.AlgoBnB: true, tsp.AlgoHeldKarp: true}
	for trial := 0; trial < 6; trial++ {
		n := 6 + r.Intn(9)
		red := randomReduction(t, r, n, 2+r.Intn(2))
		ins := red.Instance
		dense := oracleWeights(red)
		_, opt, err := tsp.HeldKarpPath(ins)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range tsp.Algorithms() {
			for _, opts := range []*tsp.SolveOptions{detOpts, nil} {
				tour, st, err := tsp.SolveContext(context.Background(), ins, algo, opts)
				if err != nil {
					t.Fatalf("%s: %v", algo, err)
				}
				if err := ins.ValidateTour(tour); err != nil {
					t.Fatalf("%s tour: %v", algo, err)
				}
				if want := oraclePathCost(dense, tour); st.Cost != want || ins.PathCost(tour) != want {
					t.Fatalf("%s: reported cost %d, instance %d, oracle %d", algo, st.Cost, ins.PathCost(tour), want)
				}
				if st.Cost < opt || (exact[algo] && st.Cost != opt) {
					t.Fatalf("%s: cost %d against optimum %d", algo, st.Cost, opt)
				}
				again, _, _ := tsp.SolveContext(context.Background(), ins, algo, opts)
				if !slices.Equal(tour, again) {
					t.Fatalf("%s: tours differ:\nfirst %v\nagain %v", algo, tour, again)
				}
			}
		}
	}
}

// TestSolveLabelingUnchangedByRepresentation checks end-to-end that exact
// solves through the compact reduction still produce optimal labelings
// (cross-validated against brute force on small graphs).
func TestSolveLabelingUnchangedByRepresentation(t *testing.T) {
	r := rng.New(404)
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(5)
		g := graph.RandomSmallDiameter(r, n, 2, 0.4)
		p := labeling.Vector{2, 1}
		res, err := Solve(g, p, &Options{Algorithm: tsp.AlgoExact, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := labeling.BruteForceExact(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Span != want {
			t.Fatalf("span %d != brute-force %d", res.Span, want)
		}
	}
}
