package tsp

import (
	"context"
	"testing"

	"lpltsp/internal/rng"
)

func TestTwoOptFastNeverWorsens(t *testing.T) {
	r := rng.New(51)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(60)
		ins := randomInstance(r, n, 100)
		tour := Tour(r.Perm(n))
		before := ins.PathCost(tour)
		delta, _ := twoOptPathFast(context.Background(), ins, tour, 8)
		if err := ins.ValidateTour(tour); err != nil {
			t.Fatal(err)
		}
		after := ins.PathCost(tour)
		if after != before+delta {
			t.Fatalf("delta accounting: before=%d delta=%d after=%d", before, delta, after)
		}
		if after > before {
			t.Fatalf("fast 2-opt worsened: %d -> %d", before, after)
		}
	}
}

func TestTwoOptFastWithFullNeighborsMatchesQuality(t *testing.T) {
	// With k = n−1 the restricted neighborhood is the full one, so the
	// final cost must be a true 2-opt local optimum: running the
	// exhaustive TwoOptPath afterwards must find nothing.
	r := rng.New(52)
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(20)
		ins := randomInstance(r, n, 50)
		tour := Tour(r.Perm(n))
		twoOptPathFast(context.Background(), ins, tour, n-1)
		if d := TwoOptPath(ins, tour); d < 0 {
			t.Fatalf("trial %d: exhaustive 2-opt improved a full-neighborhood fast result by %d", trial, d)
		}
	}
}

func TestTwoOptFastLargeInstance(t *testing.T) {
	r := rng.New(53)
	n := 400
	ins := randomInstance(r, n, 2)
	tour := Tour(r.Perm(n))
	before := ins.PathCost(tour)
	twoOptPathFast(context.Background(), ins, tour, 10)
	after := ins.PathCost(tour)
	if err := ins.ValidateTour(tour); err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("no improvement on random tour of 2-valued metric: %d -> %d", before, after)
	}
}

func TestNearestNeighborsShape(t *testing.T) {
	r := rng.New(54)
	ins := randomInstance(r, 12, 30)
	nb := nearestNeighbors(ins, 5)
	for v, list := range nb {
		if len(list) != 5 {
			t.Fatalf("vertex %d has %d neighbors, want 5", v, len(list))
		}
		for i := 1; i < len(list); i++ {
			if ins.Weight(v, int(list[i-1])) > ins.Weight(v, int(list[i])) {
				t.Fatalf("vertex %d neighbor list not sorted by weight", v)
			}
		}
		for _, u := range list {
			if int(u) == v {
				t.Fatalf("vertex %d lists itself", v)
			}
		}
	}
}
