package pathpart

import (
	"fmt"
	"runtime"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/modular"
	"lpltsp/internal/rng"
)

// cotreeCount is the oracle of the tests below: the path-cover recurrence
// evaluated over the full modular decomposition, independent of
// CographPaths' splits. It errors at a prime node.
func cotreeCount(root *modular.MDNode) (int, error) {
	switch root.Kind {
	case modular.Leaf:
		return 1, nil
	case modular.Parallel:
		total := 0
		for _, c := range root.Children {
			pc, err := cotreeCount(c)
			if err != nil {
				return 0, err
			}
			total += pc
		}
		return total, nil
	case modular.Series:
		accPC, accN := 0, 0
		for i, c := range root.Children {
			pc, err := cotreeCount(c)
			if err != nil {
				return 0, err
			}
			if i == 0 {
				accPC, accN = pc, len(c.Vertices)
				continue
			}
			accPC = joinPC(accPC, accN, pc, len(c.Vertices))
			accN += len(c.Vertices)
		}
		return accPC, nil
	default:
		return 0, fmt.Errorf("prime node over %d vertices", len(root.Vertices))
	}
}

// TestCographRecurrenceVsExactDP is the load-bearing cross-validation of
// the count, and of the cotree recurrence it realizes, against the
// general 2ⁿ DP on random cographs.
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
			t.Fatalf("trial %d (n=%d): count %d, exact DP %d", trial, n, got, want)
		}
		if rec, err := cotreeCount(modular.Decompose(g)); err != nil || rec != got {
			t.Fatalf("trial %d (n=%d): recurrence %d (%v), exact DP %d", trial, n, rec, err, got)
		}
	}
}

// TestCographCountMatchesRecurrence: on 240 seeded cographs with up to 200
// vertices, the count through CographPaths' splits equals the recurrence
// over the full modular decomposition.
func TestCographCountMatchesRecurrence(t *testing.T) {
	r := rng.New(22)
	for trial := 0; trial < 240; trial++ {
		n := 1 + r.Intn(200)
		g := graph.RandomCograph(r, n)
		if trial%2 == 1 {
			g = g.Complement() // the complement of a cograph is one
		}
		got, err := CographCount(g)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		want, err := cotreeCount(modular.Decompose(g))
		if err != nil {
			t.Fatalf("trial %d (n=%d): oracle: %v", trial, n, err)
		}
		if got != want {
			t.Fatalf("trial %d (n=%d): count %d, recurrence %d", trial, n, got, want)
		}
	}
}

// TestCographCountRejectsEarly: in a random diameter-2 graph with n = 160
// the complement splits off only the universal vertex 0, and the other
// 159 vertices form a prime node. The count rejects it after four linear
// splits (27 kB) instead of a full modular decomposition (54 MB).
func TestCographCountRejectsEarly(t *testing.T) {
	g := graph.RandomDiameter2(rng.New(1), 160, 0.5)
	g.Neighbors(0) // build the CSR view outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := CographCount(g)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a random diameter-2 graph on 160 vertices must be rejected")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("rejection allocated %d bytes", alloc)
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
