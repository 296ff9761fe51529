package matching

import (
	"testing"

	"lpltsp/internal/rng"
)

// matchWeight sums the weight of a matching given as mate pointers.
func matchWeight(mate []int, w func(i, j int) int64) int64 {
	var total int64
	for v, u := range mate {
		if u >= 0 && v < u {
			total += w(v, u)
		}
	}
	return total
}

func checkMatching(t *testing.T, mate []int) {
	t.Helper()
	for v, u := range mate {
		if u < 0 {
			continue
		}
		if u == v {
			t.Fatalf("vertex %d matched to itself", v)
		}
		if mate[u] != v {
			t.Fatalf("asymmetric matching: mate[%d]=%d but mate[%d]=%d", v, u, u, mate[u])
		}
	}
}

// matchedWeight sums w over the matched pairs of mate.
func matchedWeight(mate []int, w func(i, j int) int64) int64 {
	var total int64
	for v, u := range mate {
		if v < u {
			total += w(v, u)
		}
	}
	return total
}

func TestMaxWeightMatchingTiny(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges []Edge
		want  []int
	}{
		{"empty", 0, nil, nil},
		{"single-edge", 2, []Edge{{0, 1, 5}}, []int{1, 0}},
		{"prefer-heavy", 3, []Edge{{0, 1, 2}, {1, 2, 10}}, []int{-1, 2, 1}},
		{"path-middle-wins", 4, []Edge{{0, 1, 5}, {1, 2, 11}, {2, 3, 5}}, []int{-1, 2, 1, -1}},
		{"path-ends-win", 4, []Edge{{0, 1, 5}, {1, 2, 8}, {2, 3, 5}}, []int{1, 0, 3, 2}},
		{"triangle", 3, []Edge{{0, 1, 6}, {1, 2, 5}, {0, 2, 4}}, []int{1, 0, -1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := MaxWeightMatching(tc.n, tc.edges, false)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v want %v", got, tc.want)
				}
			}
		})
	}
}

// TestMaxWeightNeedsBlossom exercises cases where the greedy/bipartite view
// fails and a blossom must be formed: an odd cycle with a pendant.
func TestMaxWeightNeedsBlossom(t *testing.T) {
	// 5-cycle 0-1-2-3-4-0 with all weights 10 and a pendant 4-5 weight 6.
	edges := []Edge{
		{0, 1, 10}, {1, 2, 10}, {2, 3, 10}, {3, 4, 10}, {4, 0, 10}, {4, 5, 6},
	}
	mate := MaxWeightMatching(6, edges, false)
	checkMatching(t, mate)
	w := matchWeight(mate, weightFn(6, edges))
	// Optimum: 0-1, 2-3, 4-5 → 26.
	if w != 26 {
		t.Fatalf("blossom case weight = %d, want 26; mate=%v", w, mate)
	}
}

// weightFn builds a weight lookup from an edge list (0 if absent).
func weightFn(n int, edges []Edge) func(i, j int) int64 {
	m := make(map[[2]int]int64)
	for _, e := range edges {
		a, b := e.I, e.J
		if a > b {
			a, b = b, a
		}
		m[[2]int{a, b}] = e.W
	}
	return func(i, j int) int64 {
		if i > j {
			i, j = j, i
		}
		return m[[2]int{i, j}]
	}
}

// bruteMaxWeight enumerates all matchings of the edge list (n small).
func bruteMaxWeight(n int, edges []Edge, maxCard bool) int64 {
	bestW := int64(0)
	bestCard := 0
	used := make([]bool, n)
	var rec func(k int, card int, w int64)
	rec = func(k int, card int, w int64) {
		if maxCard {
			if card > bestCard || (card == bestCard && w > bestW) {
				bestCard, bestW = card, w
			}
		} else if w > bestW {
			bestW = w
		}
		for i := k; i < len(edges); i++ {
			e := edges[i]
			if used[e.I] || used[e.J] {
				continue
			}
			used[e.I], used[e.J] = true, true
			rec(i+1, card+1, w+e.W)
			used[e.I], used[e.J] = false, false
		}
	}
	rec(0, 0, 0)
	return bestW
}

func TestMaxWeightMatchingRandomVsBrute(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(8) // 2..9 vertices
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.6 {
					edges = append(edges, Edge{i, j, int64(r.Intn(20))})
				}
			}
		}
		got := MaxWeightMatching(n, edges, false)
		checkMatching(t, got)
		gotW := matchWeight(got, weightFn(n, edges))
		want := bruteMaxWeight(n, edges, false)
		if gotW != want {
			t.Fatalf("trial %d: n=%d edges=%v: got weight %d, brute force %d, mate=%v",
				trial, n, edges, gotW, want, got)
		}
	}
}

func TestMaxCardinalityRandomVsBrute(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(8)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.5 {
					edges = append(edges, Edge{i, j, int64(r.Intn(15))})
				}
			}
		}
		got := MaxWeightMatching(n, edges, true)
		checkMatching(t, got)
		card := 0
		for _, u := range got {
			if u >= 0 {
				card++
			}
		}
		gotW := matchWeight(got, weightFn(n, edges))
		// Brute max cardinality first, then weight.
		bestCard, bestW := bruteMaxCard(n, edges)
		if card/2 != bestCard || gotW != bestW {
			t.Fatalf("trial %d: n=%d edges=%v: got (card=%d,w=%d), want (%d,%d)",
				trial, n, edges, card/2, gotW, bestCard, bestW)
		}
	}
}

func bruteMaxCard(n int, edges []Edge) (card int, w int64) {
	used := make([]bool, n)
	var rec func(k, c int, wt int64)
	rec = func(k, c int, wt int64) {
		if c > card || (c == card && wt > w) {
			card, w = c, wt
		}
		for i := k; i < len(edges); i++ {
			e := edges[i]
			if used[e.I] || used[e.J] {
				continue
			}
			used[e.I], used[e.J] = true, true
			rec(i+1, c+1, wt+e.W)
			used[e.I], used[e.J] = false, false
		}
	}
	rec(0, 0, 0)
	return card, w
}

// completeEdges lists every edge {i,j}, i < j, of the complete graph on n
// vertices with weight w(i,j).
func completeEdges(n int, w func(i, j int) int64) []Edge {
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j, w(i, j)})
		}
	}
	return edges
}

func TestMinWeightPerfectVsBruteForce(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 300; trial++ {
		n := 2 * (1 + r.Intn(5)) // 2..10, even
		w := make([][]int64, n)
		for i := range w {
			w[i] = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				x := int64(r.Intn(50))
				w[i][j], w[j][i] = x, x
			}
		}
		wf := func(i, j int) int64 { return w[i][j] }
		mate, err := MinWeightPerfectSparse(n, completeEdges(n, wf))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkMatching(t, mate)
		for v, u := range mate {
			if u < 0 {
				t.Fatalf("trial %d: vertex %d unmatched", trial, v)
			}
		}
		_, want := BruteForceMinPerfect(n, wf)
		if total := matchedWeight(mate, wf); total != want {
			t.Fatalf("trial %d: n=%d blossom total %d != brute force %d", trial, n, total, want)
		}
	}
}

func TestMinWeightPerfectMetric(t *testing.T) {
	// Metric weights in {p, 2p} like the paper's reduced instances.
	r := rng.New(2023)
	for trial := 0; trial < 200; trial++ {
		n := 2 * (2 + r.Intn(4)) // 4..10
		w := make([][]int64, n)
		for i := range w {
			w[i] = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				x := int64(2)
				if r.Bool() {
					x = 4
				}
				w[i][j], w[j][i] = x, x
			}
		}
		wf := func(i, j int) int64 { return w[i][j] }
		mate, err := MinWeightPerfectSparse(n, completeEdges(n, wf))
		if err != nil {
			t.Fatal(err)
		}
		_, want := BruteForceMinPerfect(n, wf)
		if total := matchedWeight(mate, wf); total != want {
			t.Fatalf("trial %d: got %d want %d", trial, total, want)
		}
	}
}

func TestMinWeightPerfectOddN(t *testing.T) {
	if _, err := MinWeightPerfectSparse(3, completeEdges(3, func(i, j int) int64 { return 1 })); err == nil {
		t.Fatal("expected error for odd n")
	}
}

func TestMinWeightPerfectSparseInfeasible(t *testing.T) {
	// A path on 4 vertices 0-1-2-3 missing 1-2: no perfect matching of
	// {0-1, 2-3} exists if we delete 0-1... build a star: K_{1,3}.
	edges := []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}}
	if _, err := MinWeightPerfectSparse(4, edges); err == nil {
		t.Fatal("expected infeasibility error for a star on 4 vertices")
	}
}

func TestMinWeightPerfectSparseFeasible(t *testing.T) {
	edges := []Edge{{0, 1, 3}, {1, 2, 1}, {2, 3, 3}, {3, 0, 1}}
	mate, err := MinWeightPerfectSparse(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkMatching(t, mate)
	w := func(i, j int) int64 {
		for _, e := range edges {
			if (e.I == i && e.J == j) || (e.I == j && e.J == i) {
				return e.W
			}
		}
		t.Fatalf("matched pair {%d,%d} is not an edge", i, j)
		return 0
	}
	if total := matchedWeight(mate, w); total != 2 {
		t.Fatalf("cycle matching total = %d, want 2 (edges 1-2 and 3-0)", total)
	}
}

func TestBruteForceMatchesKnown(t *testing.T) {
	w := func(i, j int) int64 { return int64(i + j) }
	_, total := BruteForceMinPerfect(4, w)
	// Pairs {0,1},{2,3} → 1+5 = 6; {0,2},{1,3} → 2+4=6; {0,3},{1,2} → 3+3=6.
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
}

func TestMaxWeightLargeRandomStress(t *testing.T) {
	// Larger instances: verify matching validity and dual-feasible weight
	// sanity (monotone nonnegative), not optimality (no oracle at n=60).
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		n := 40 + r.Intn(20)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					edges = append(edges, Edge{i, j, int64(r.Intn(1000))})
				}
			}
		}
		mate := MaxWeightMatching(n, edges, false)
		checkMatching(t, mate)
	}
}
