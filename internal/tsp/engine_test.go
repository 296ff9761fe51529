package tsp

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

// engineTestInstance builds an instance with weights in {1,2}, which
// guarantees the triangle inequality (same argument as the labeling
// reduction's weight band).
func engineTestInstance(seed uint64, n int) *Instance {
	r := rng.New(seed)
	return weightedInstance(n, func(i, j int) int64 { return int64(1 + r.Intn(2)) })
}

func TestRegistryResolvesAllEngines(t *testing.T) {
	ins := engineTestInstance(3, 12)
	_, opt, err := HeldKarpPath(ins)
	if err != nil {
		t.Fatal(err)
	}
	algos := Algorithms()
	if len(algos) < 8 {
		t.Fatalf("table has %d engines, want at least the paper's eight: %v", len(algos), algos)
	}
	seen := map[Algorithm]bool{}
	for _, algo := range algos {
		if algo == "" || seen[algo] {
			t.Fatalf("engine name %q empty or listed twice: %v", algo, algos)
		}
		seen[algo] = true
		eng, err := New(algo, nil)
		if err != nil {
			t.Fatalf("New(%s): %v", algo, err)
		}
		if eng.Name() != algo {
			t.Fatalf("engine listed as %q names itself %q", algo, eng.Name())
		}
		tour, stats, err := eng.Solve(context.Background(), ins)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := ins.PathCost(tour); got != stats.Cost {
			t.Fatalf("%s: Stats.Cost %d != PathCost %d", algo, stats.Cost, got)
		}
		if stats.Cost < opt {
			t.Fatalf("%s: cost %d below optimum %d", algo, stats.Cost, opt)
		}
		if stats.Optimal && stats.Cost != opt {
			t.Fatalf("%s claims optimality at cost %d, optimum is %d", algo, stats.Cost, opt)
		}
	}
}

func TestLookupUnknownAlgorithm(t *testing.T) {
	if _, err := Lookup(Algorithm("bogus")); err == nil {
		t.Fatal("Lookup(bogus) must error")
	}
	if _, _, err := Solve(engineTestInstance(1, 6), Algorithm("bogus"), nil); err == nil {
		t.Fatal("Solve with unknown algorithm must error")
	}
}

func TestSolveMatchesEngineDispatch(t *testing.T) {
	ins := engineTestInstance(9, 14)
	for _, algo := range []Algorithm{AlgoExact, AlgoChristofides, AlgoGreedyEdge} {
		tour, cost, err := Solve(ins, algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if cost != ins.PathCost(tour) {
			t.Fatalf("%s: reported cost %d != recomputed %d", algo, cost, ins.PathCost(tour))
		}
	}
}

// TestEnginesReturnPromptlyAfterCancel is the cancellation-semantics
// contract, table-driven over the engine table: with an already-cancelled
// context every engine must return within a small bound, either with a
// context error (no incumbent) or with a valid anytime tour.
func TestEnginesReturnPromptlyAfterCancel(t *testing.T) {
	ins := engineTestInstance(5, 20) // within every engine's size limit
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range Algorithms() {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			start := time.Now()
			tour, stats, err := SolveContext(ctx, ins, algo, nil)
			elapsed := time.Since(start)
			if elapsed > 3*time.Second {
				t.Fatalf("engine took %v to notice a cancelled context", elapsed)
			}
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("non-context error after cancel: %v", err)
				}
				return
			}
			// Anytime path: the tour must still be valid and priced.
			if verr := ins.ValidateTour(tour); verr != nil {
				t.Fatalf("anytime tour invalid: %v", verr)
			}
			if stats.Cost != ins.PathCost(tour) {
				t.Fatalf("anytime Stats.Cost %d != PathCost %d", stats.Cost, ins.PathCost(tour))
			}
			if stats.Optimal && !stats.Truncated {
				// A cancelled run may legitimately complete (tiny work),
				// but then it must have actually proven optimality.
				_, opt, _ := HeldKarpPath(ins)
				if stats.Cost != opt {
					t.Fatalf("claimed optimal cost %d, optimum %d", stats.Cost, opt)
				}
			}
		})
	}
}

// TestBnBAnytimeDeadline forces branch and bound past its deadline and
// checks it surrenders a valid incumbent instead of erroring.
func TestBnBAnytimeDeadline(t *testing.T) {
	ins := engineTestInstance(11, 34)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	tour, stats, err := branchAndBoundPath(ctx, ins, nil)
	if err != nil {
		t.Fatalf("anytime BnB errored: %v", err)
	}
	if err := ins.ValidateTour(tour); err != nil {
		t.Fatal(err)
	}
	if stats.Optimal && stats.Truncated {
		t.Fatal("a truncated run must not claim optimality")
	}
	if stats.Cost != ins.PathCost(tour) {
		t.Fatalf("Stats.Cost %d != PathCost %d", stats.Cost, ins.PathCost(tour))
	}
}

// TestBnBCompletesOptimal pins the completed-search case: Stats.Optimal is
// set and matches Held–Karp.
func TestBnBCompletesOptimal(t *testing.T) {
	ins := engineTestInstance(13, 12)
	tour, stats, err := branchAndBoundPath(context.Background(), ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Optimal || stats.Truncated {
		t.Fatalf("uninterrupted BnB must prove optimality: %+v", stats)
	}
	_, opt, _ := HeldKarpPath(ins)
	if stats.Cost != opt || ins.PathCost(tour) != opt {
		t.Fatalf("BnB cost %d, optimum %d", stats.Cost, opt)
	}
}

// TestChainedAnytimeUnderDeadline checks the chained engine yields a valid
// tour even when the deadline expires immediately.
func TestChainedAnytimeUnderDeadline(t *testing.T) {
	ins := engineTestInstance(17, 120)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tour, cost, _ := chainedLocalSearch(ctx, ins, &ChainedOptions{Restarts: 4, Kicks: 50, Seed: 2})
	if err := ins.ValidateTour(tour); err != nil {
		t.Fatal(err)
	}
	if cost != ins.PathCost(tour) {
		t.Fatalf("cost %d != recomputed %d", cost, ins.PathCost(tour))
	}
}

func TestHeldKarpCancelReturnsContextError(t *testing.T) {
	ins := engineTestInstance(19, 18)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := heldKarp(ctx, ins); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestEnginesDeterministic: the parallel engines — default-option chained
// (GOMAXPROCS chains, one of them seeded by the parallel nearest-neighbor
// sweep) and nn — break cost ties by chain index and start vertex, so
// repeated solves return the identical tour whichever worker finishes
// first. The instances are full of ties: a diameter-2 graph under
// p = (2,2,1) has one weight, so every tour ties; the diameter-2 graphs
// under (2,1) and (1,2) have two.
func TestEnginesDeterministic(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		p    []int64
	}{
		{"smalldiam42/(2,2,1)", graph.RandomSmallDiameter(rng.New(99), 42, 3, 0.1), []int64{2, 2, 1}},
		{"diameter2-60/(2,1)", graph.RandomDiameter2(rng.New(5), 60, 0.3), []int64{2, 1}},
		{"diameter2-60/(1,2)", graph.RandomDiameter2(rng.New(6), 60, 0.5), []int64{1, 2}},
	}
	for _, c := range cases {
		dm := c.g.AllPairsDistances()
		diam, _ := dm.Max()
		ins := NewClassInstance(c.g.N(), dm.Data(), diam, c.p)
		for _, algo := range []Algorithm{AlgoChained, AlgoNearestNeighbor} {
			first, _, err := SolveContext(context.Background(), ins, algo, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, algo, err)
			}
			for rep := 1; rep < 20; rep++ {
				tour, _, err := SolveContext(context.Background(), ins, algo, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, algo, err)
				}
				if !slices.Equal(tour, first) {
					t.Fatalf("%s %s: repeat %d returned %v, first solve %v", c.name, algo, rep, tour, first)
				}
			}
		}
	}
}
