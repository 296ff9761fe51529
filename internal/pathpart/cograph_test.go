package pathpart

import (
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

// TestCographRecurrenceVsExactDP is the load-bearing cross-validation of
// the cotree recurrence against the general 2ⁿ DP on random cographs.
func TestCographRecurrenceVsExactDP(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 80; trial++ {
		n := 1 + r.Intn(14)
		g := graph.RandomCograph(r, n)
		got, err := CographCount(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		paths, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(paths); got != want {
			t.Fatalf("trial %d (n=%d): recurrence %d, exact DP %d", trial, n, got, want)
		}
	}
}

func TestCographCountClassics(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K5", graph.Complete(5), 1},
		{"empty6", graph.New(6), 6},
		{"star5", graph.Star(5), 3}, // K1 ∗ 4K1: max(1, 1-4, 4-1) = 3
		{"K33", graph.CompleteMultipartite(3, 3), 1},
		{"K15", graph.CompleteMultipartite(1, 5), 4},
		{"K24", graph.CompleteMultipartite(2, 4), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := CographCount(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("pc = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestCographCountRejectsNonCographs(t *testing.T) {
	if _, err := CographCount(graph.Path(4)); err == nil {
		t.Fatal("P4 is the forbidden subgraph; must be rejected")
	}
	if _, err := CographCount(graph.Cycle(5)); err == nil {
		t.Fatal("C5 is prime; must be rejected")
	}
}

func TestCographCountLarge(t *testing.T) {
	// Far beyond the exact DP's n ≤ 22: the recurrence stays exact and
	// fast. Sanity: pc ≥ 1 and pc ≤ n, and greedy never beats it.
	r := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		n := 100 + r.Intn(400)
		g := graph.RandomCograph(r, n)
		pc, err := CographCount(g)
		if err != nil {
			t.Fatal(err)
		}
		if pc < 1 || pc > n {
			t.Fatalf("implausible pc %d for n=%d", pc, n)
		}
		if greedy := len(Greedy(g)); greedy < pc {
			t.Fatalf("greedy %d below exact %d — recurrence wrong", greedy, pc)
		}
	}
}

func TestCographCountEmpty(t *testing.T) {
	if pc, err := CographCount(graph.New(0)); err != nil || pc != 0 {
		t.Fatalf("empty: %d %v", pc, err)
	}
}
