package labeling

import (
	"strings"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

func TestVectorValidate(t *testing.T) {
	if err := (Vector{}).Validate(); err == nil {
		t.Fatal("empty vector must fail")
	}
	if err := (Vector{2, -1}).Validate(); err == nil {
		t.Fatal("negative entry must fail")
	}
	if err := L21().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	p := Vector{2, 1}
	if pmin, pmax := p.MinMax(); pmin != 1 || pmax != 2 {
		t.Fatal("MinMax")
	}
	if !p.SatisfiesReductionCondition() {
		t.Fatal("(2,1) satisfies pmax ≤ 2pmin")
	}
	if (Vector{3, 1}).SatisfiesReductionCondition() {
		t.Fatal("(3,1) violates the condition")
	}
	if got := p.Scale(3); got[0] != 6 || got[1] != 3 {
		t.Fatal("Scale")
	}
	if Ones(3).K() != 3 || Ones(3)[2] != 1 {
		t.Fatal("Ones")
	}
}

func TestVerify(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	p := L21()
	// Valid: 0,2,4.
	if err := Verify(g, p, Labeling{0, 2, 4}); err != nil {
		t.Fatal(err)
	}
	// Adjacent too close.
	if err := Verify(g, p, Labeling{0, 1, 4}); err == nil {
		t.Fatal("adjacent labels 0,1 must fail for p=(2,1)")
	}
	// Distance-2 equal labels.
	if err := Verify(g, p, Labeling{0, 2, 0}); err == nil {
		t.Fatal("distance-2 equal labels must fail")
	}
	// Wrong length.
	if err := Verify(g, p, Labeling{0, 2}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	// Negative label.
	if err := Verify(g, p, Labeling{-1, 2, 4}); err == nil {
		t.Fatal("negative label must fail")
	}
	// Pairs beyond the horizon are unconstrained.
	g5 := graph.Path(5)
	if err := Verify(g5, p, Labeling{0, 2, 4, 0, 2}); err != nil {
		t.Fatalf("beyond-horizon reuse should be legal: %v", err)
	}
}

// TestVerifyMatchesMatrix: for len(p) ≤ 2 Verify checks from adjacency
// alone, and must accept exactly the labelings VerifyWithMatrix accepts —
// on solver outputs, near misses and random labelings, and with p₁ < p₂,
// where two adjacent common neighbours need only p₁.
func TestVerifyMatchesMatrix(t *testing.T) {
	// A triangle under (1,2): 0 and 1 are both neighbours of 2 but also
	// adjacent, so labels one apart are legal.
	if err := Verify(graph.Complete(3), Vector{1, 2}, Labeling{0, 1, 2}); err != nil {
		t.Fatalf("adjacent common neighbours need only p_1: %v", err)
	}
	r := rng.New(77)
	ps := []Vector{{1}, {2, 1}, {1, 2}, {1, 1}, {3, 2}}
	valid, invalid := 0, 0
	for i := 0; i < 1500; i++ {
		p := ps[i%len(ps)]
		n := 1 + r.Intn(40)
		var g *graph.Graph
		switch i % 4 {
		case 0:
			g = graph.GNP(r, n, 0.05+0.5*r.Float64())
		case 1:
			g = graph.RandomTree(r, n)
		case 2:
			g = graph.RandomSmallDiameter(r, n, 2+r.Intn(3), 0.2)
		default:
			g = graph.Wheel(max(n, 4))
			n = g.N()
		}
		var l Labeling
		switch (i / 4) % 3 {
		case 0: // a solver output
			if i%4 == 1 && len(p) == 2 && p[0] == 2 && p[1] == 1 {
				l, _, _ = TreeLambda21(g)
			} else {
				l, _, _ = GreedyFirstFit(g, p, OrderDegree)
			}
		case 1: // a near miss: one label of a solver output moved
			l, _, _ = GreedyFirstFit(g, p, OrderBFS)
			l[r.Intn(n)] = r.Intn(l.Span() + 2)
		default: // random labels
			l = make(Labeling, n)
			hi := 1 + n*r.Intn(4)
			for v := range l {
				l[v] = r.Intn(hi)
			}
		}
		got := Verify(g, p, l)
		want := VerifyWithMatrix(g.AllPairsDistances(), p, l)
		if (got == nil) != (want == nil) {
			t.Fatalf("case %d (n=%d p=%v): Verify says %v, VerifyWithMatrix says %v", i, n, p, got, want)
		}
		if got == nil {
			valid++
		} else {
			invalid++
		}
	}
	if valid < 300 || invalid < 300 {
		t.Fatalf("%d valid and %d invalid labelings: too few of one kind to compare", valid, invalid)
	}
}

func TestBruteForceKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"P1", graph.Path(1), PathLambda21(1)},
		{"P2", graph.Path(2), PathLambda21(2)},
		{"P3", graph.Path(3), PathLambda21(3)},
		{"P4", graph.Path(4), PathLambda21(4)},
		{"P5", graph.Path(5), PathLambda21(5)},
		{"P7", graph.Path(7), PathLambda21(7)},
		{"C3", graph.Cycle(3), CycleLambda21(3)},
		{"C4", graph.Cycle(4), CycleLambda21(4)},
		{"C5", graph.Cycle(5), CycleLambda21(5)},
		{"C8", graph.Cycle(8), CycleLambda21(8)},
		{"K4", graph.Complete(4), CompleteLambda21(4)},
		{"K6", graph.Complete(6), CompleteLambda21(6)},
		{"Star5", graph.Star(5), StarLambda21(5)},
		{"Star8", graph.Star(8), StarLambda21(8)},
		{"W6", graph.Wheel(6), WheelLambda21(6)},
		{"W7", graph.Wheel(7), WheelLambda21(7)},
		{"W4=K4", graph.Wheel(4), 6},
		{"W5", graph.Wheel(5), 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lab, span, err := BruteForceExact(tc.g, L21())
			if err != nil {
				t.Fatal(err)
			}
			if span != tc.want {
				t.Fatalf("λ_{2,1} = %d, want %d", span, tc.want)
			}
			if err := Verify(tc.g, L21(), lab); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBruteForceRejectsLargeN(t *testing.T) {
	if _, _, err := BruteForceExact(graph.Complete(BruteForceMaxN+1), L21()); err == nil {
		t.Fatal("expected size-limit error")
	}
}

func TestBruteForceGeneralP(t *testing.T) {
	// L(1,1) on a star = coloring of K_{1,m}²: hub + leaves all pairwise
	// within distance 2 → n distinct labels → span n−1.
	for n := 2; n <= 7; n++ {
		_, span, err := BruteForceExact(graph.Star(n), Ones(2))
		if err != nil {
			t.Fatal(err)
		}
		if span != n-1 {
			t.Fatalf("L(1,1) star %d: span %d, want %d", n, span, n-1)
		}
	}
	// p with a zero entry: L(0,1) on K3: adjacent pairs unconstrained.
	_, span, err := BruteForceExact(graph.Complete(3), Vector{0, 1})
	if err != nil || span != 0 {
		t.Fatalf("L(0,1) on K3: span %d err %v", span, err)
	}
}

func TestExactForOrdering(t *testing.T) {
	g := graph.Path(3)
	p := L21()
	// Ordering 0,1,2: l(0)=0, l(1)=2, l(2)=4 → span 4.
	_, span, err := ExactForOrdering(g, p, []int{0, 1, 2})
	if err != nil || span != 4 {
		t.Fatalf("span %d err %v, want 4", span, err)
	}
	// Ordering 0,2,1: l(0)=0, l(2)=1 (distance 2), l(1)=3 → span 3 = λ(P3).
	_, span, err = ExactForOrdering(g, p, []int{0, 2, 1})
	if err != nil || span != 3 {
		t.Fatalf("span %d err %v, want 3", span, err)
	}
	if _, _, err := ExactForOrdering(g, p, []int{0, 1}); err == nil {
		t.Fatal("short ordering must fail")
	}
}

// TestBruteForceEqualsMinOverOrderings: λ = min over orderings of the
// greedy completion (the structural fact BruteForceExact relies on),
// verified independently on tiny graphs.
func TestBruteForceEqualsMinOverOrderings(t *testing.T) {
	r := rng.New(20)
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(5)
		g := graph.GNP(r, n, 0.5)
		if !g.IsConnected() {
			continue
		}
		p := Vector{1 + r.Intn(3), 1 + r.Intn(3)}
		_, want, err := BruteForceExact(g, p)
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate orderings explicitly.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		best := -1
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				_, span, err := ExactForOrdering(g, p, perm)
				if err != nil {
					t.Fatal(err)
				}
				if best < 0 || span < best {
					best = span
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
		if best != want {
			t.Fatalf("trial %d: min-over-orderings %d != brute %d (p=%v)", trial, best, want, p)
		}
	}
}

func TestGreedyFirstFit(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(25)
		g := graph.GNP(r, n, 0.3)
		p := Vector{2, 1}
		for _, ord := range []GreedyOrder{OrderDegree, OrderBFS, OrderNatural} {
			lab, span, err := GreedyFirstFit(g, p, ord)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, p, lab); err != nil {
				t.Fatalf("order %s: %v", ord, err)
			}
			if lab.Span() != span {
				t.Fatalf("span accounting: %d vs %d", lab.Span(), span)
			}
		}
	}
}

func TestGreedyRespectsGriggsYehBound(t *testing.T) {
	// First-fit in any order satisfies λ ≤ Δ²+2Δ for p=(2,1)? The classical
	// argument bounds the number of forbidden labels per vertex:
	// each of ≤Δ neighbors forbids ≤3 labels, each of ≤Δ(Δ−1)
	// distance-2 vertices forbids 1 → first-fit span ≤ 3Δ + Δ(Δ−1) = Δ²+2Δ.
	r := rng.New(22)
	for trial := 0; trial < 30; trial++ {
		g := graph.GNP(r, 2+r.Intn(30), 0.25)
		_, span, err := GreedyFirstFit(g, L21(), OrderDegree)
		if err != nil {
			t.Fatal(err)
		}
		if ub := GriggsYehUpperBound21(g); span > ub {
			t.Fatalf("greedy span %d exceeds Δ²+2Δ = %d", span, ub)
		}
	}
}

func TestBoundsSandwichOptimum(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(8)
		g := graph.RandomSmallDiameter(r, n, 2, 0.4)
		p := L21()
		_, opt, err := BruteForceExact(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if lb := CliqueLowerBound(g, p); lb > opt {
			t.Fatalf("clique LB %d > optimum %d", lb, opt)
		}
		if ub := GreedyUpperBound(g, p); ub < opt {
			t.Fatalf("greedy UB %d < optimum %d", ub, opt)
		}
	}
}

func TestSpanOfEmpty(t *testing.T) {
	if (Labeling{}).Span() != 0 {
		t.Fatal("empty labeling span")
	}
	lab, span, err := BruteForceExact(graph.New(0), L21())
	if err != nil || span != 0 || len(lab) != 0 {
		t.Fatal("empty graph")
	}
}

func TestVerifyErrorMessageNamesPair(t *testing.T) {
	g := graph.Path(2)
	err := Verify(g, L21(), Labeling{0, 1})
	if err == nil || !strings.Contains(err.Error(), "p_1") {
		t.Fatalf("error should name the violated constraint: %v", err)
	}
}

func TestMergeComponents(t *testing.T) {
	// Two components of a 5-vertex graph: {0,2,4} and {1,3}.
	comps := [][]int{{0, 2, 4}, {1, 3}}
	labs := []Labeling{{0, 2, 4}, {0, 3}}
	l, span, err := MergeComponents(5, comps, labs)
	if err != nil {
		t.Fatal(err)
	}
	if span != 4 {
		t.Fatalf("merged span %d, want 4", span)
	}
	want := Labeling{0, 0, 2, 3, 4}
	for v := range want {
		if l[v] != want[v] {
			t.Fatalf("vertex %d: label %d, want %d", v, l[v], want[v])
		}
	}
	// Error paths: length mismatch, overlap, out of range, missing vertex.
	if _, _, err := MergeComponents(5, comps, labs[:1]); err == nil {
		t.Fatal("component/labeling count mismatch accepted")
	}
	if _, _, err := MergeComponents(5, [][]int{{0, 2}, {1, 3}}, labs); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := MergeComponents(5, [][]int{{0, 2, 4}, {1, 0}}, labs); err == nil {
		t.Fatal("overlapping components accepted")
	}
	if _, _, err := MergeComponents(5, [][]int{{0, 2, 7}, {1, 3}}, labs); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, _, err := MergeComponents(6, comps, labs); err == nil {
		t.Fatal("missing vertex accepted")
	}
}
