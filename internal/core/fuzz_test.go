package core

import (
	"context"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
)

// FuzzSolveVerify is the solver's global safety property: for ANY
// generated (g, p) — connected or not, dense or empty, any vector shape —
// Solve must return a labeling that passes labeling.Verify, with a span
// inside the bounds of labeling/bounds.go: never below the clique lower
// bound on λ, and (when exactness is claimed) never above the greedy
// first-fit upper bound or, for p = (2,1), the Griggs–Yeh bound.
func FuzzSolveVerify(f *testing.F) {
	f.Add(uint8(5), uint64(0b1010110011), uint8(2), uint8(1), uint8(1))
	f.Add(uint8(9), uint64(0xdeadbeef), uint8(3), uint8(2), uint8(2))
	f.Add(uint8(3), uint64(0), uint8(1), uint8(1), uint8(0))            // empty graph
	f.Add(uint8(10), uint64(^uint64(0)), uint8(2), uint8(2), uint8(1))  // clique, uniform
	f.Add(uint8(12), uint64(0x5555_5555), uint8(4), uint8(1), uint8(1)) // pmax > 2·pmin
	f.Add(uint8(8), uint64(0x0f0f), uint8(0), uint8(3), uint8(1))       // pmin = 0
	// Trees (m = n − 1), probed by two BFS runs with no matrix up front.
	f.Add(uint8(10), uint64(0x50040060201803), uint8(2), uint8(1), uint8(1)) // 11-vertex tree
	f.Add(uint8(10), uint64(0x50040060201803), uint8(1), uint8(1), uint8(2)) // same tree, uniform
	f.Add(uint8(9), uint64(0x1ff), uint8(2), uint8(1), uint8(2))             // star K1,9
	f.Add(uint8(6), uint64(0x148841), uint8(3), uint8(1), uint8(1))          // path P7
	f.Fuzz(func(t *testing.T, n uint8, edges uint64, p1, p2, k uint8) {
		nv := int(n%14) + 1 // up to 14 vertices: exercises engines past toy sizes
		g := graph.New(nv)
		bit := 0
		for u := 0; u < nv; u++ {
			for v := u + 1; v < nv; v++ {
				if edges&(1<<(bit%64)) != 0 {
					g.AddEdge(u, v)
				}
				bit++
			}
		}
		p := labeling.Vector{int(p1 % 6)}
		if k%3 > 0 {
			p = append(p, int(p2%6))
		}
		if k%3 > 1 {
			p = append(p, int(p1%3))
		}
		res, err := SolveContext(context.Background(), g, p, &Options{Verify: true, NoCache: true})
		if err != nil {
			t.Fatalf("solve errored on n=%d p=%v: %v", nv, p, err)
		}
		if err := labeling.Verify(g, p, res.Labeling); err != nil {
			t.Fatalf("invalid labeling (method %s, n=%d p=%v): %v", res.Method, nv, p, err)
		}
		if res.Span < 0 {
			t.Fatalf("negative span %d", res.Span)
		}
		// Any valid labeling's span dominates λ, which dominates the
		// clique lower bound.
		if lb := labeling.CliqueLowerBound(g, p); res.Span < lb {
			t.Fatalf("span %d below the clique lower bound %d (method %s, n=%d p=%v)",
				res.Span, lb, res.Method, nv, p)
		}
		if res.Exact {
			// λ is at most any upper bound from bounds.go.
			if ub := labeling.GreedyUpperBound(g, p); res.Span > ub {
				t.Fatalf("exact span %d above the greedy upper bound %d (method %s, n=%d p=%v)",
					res.Span, ub, res.Method, nv, p)
			}
			if len(p) == 2 && p[0] == 2 && p[1] == 1 {
				if gy := labeling.GriggsYehUpperBound21(g); res.Span > gy {
					t.Fatalf("exact λ_{2,1} = %d above Griggs–Yeh %d (n=%d)", res.Span, gy, nv)
				}
			}
		}
	})
}

// FuzzPlan drives the planner over arbitrary small graphs and constraint
// vectors: whatever the route, the solve must terminate without error,
// produce a labeling that verifies against the definition, and — when it
// claims exactness on a brute-forceable instance — match the
// reduction-free optimum, which must also be at least the reduction's
// LowerBound wherever Reduce succeeds. Edge bits decode into an adjacency
// upper triangle, so the corpus explores connected, disconnected, dense,
// and empty graphs alike.
func FuzzPlan(f *testing.F) {
	f.Add(uint8(4), uint64(0b111111), uint8(2), uint8(1), uint8(1))
	f.Add(uint8(6), uint64(0x3_0a1f), uint8(2), uint8(1), uint8(0))
	f.Add(uint8(8), uint64(0), uint8(5), uint8(1), uint8(2))          // empty graph, pmax > 2·pmin
	f.Add(uint8(7), uint64(^uint64(0)), uint8(1), uint8(1), uint8(3)) // K7, uniform p
	f.Add(uint8(5), uint64(0b10011), uint8(3), uint8(3), uint8(0))
	// Trees (m = n − 1), probed by two BFS runs with no matrix up front.
	f.Add(uint8(5), uint64(0x5221), uint8(2), uint8(1), uint8(1))      // path P6
	f.Add(uint8(5), uint64(0x1f), uint8(2), uint8(2), uint8(2))        // star K1,5
	f.Add(uint8(8), uint64(0xa04200125), uint8(3), uint8(1), uint8(1)) // spider, legs 2, 3, 3
	f.Add(uint8(7), uint64(0x3048d), uint8(1), uint8(1), uint8(1))     // caterpillar
	f.Add(uint8(1), uint64(0x1), uint8(2), uint8(1), uint8(2))         // one edge
	f.Add(uint8(2), uint64(0x6), uint8(1), uint8(2), uint8(1))         // P3 centred on 2
	f.Add(uint8(0), uint64(0), uint8(2), uint8(1), uint8(1))           // one vertex
	f.Fuzz(func(t *testing.T, n uint8, edges uint64, p1, p2, k uint8) {
		nv := int(n%9) + 1 // 1..9 vertices: brute force stays feasible
		g := graph.New(nv)
		bit := 0
		for u := 0; u < nv; u++ {
			for v := u + 1; v < nv; v++ {
				if edges&(1<<(bit%64)) != 0 {
					g.AddEdge(u, v)
				}
				bit++
			}
		}
		p := labeling.Vector{int(p1 % 7)}
		if k%3 > 0 {
			p = append(p, int(p2%7))
		}
		if k%3 > 1 {
			p = append(p, 1)
		}
		res, err := SolveContext(context.Background(), g, p, &Options{Verify: true, NoCache: true})
		if err != nil {
			t.Fatalf("planner errored on n=%d p=%v: %v", nv, p, err)
		}
		if err := labeling.Verify(g, p, res.Labeling); err != nil {
			t.Fatalf("invalid labeling (method %s): %v", res.Method, err)
		}
		if res.Method == "" {
			t.Fatal("no method provenance")
		}
		// Where the reduction applies, its spanning-tree bound must never
		// exceed λ: a bound above λ would certify non-optimal paths.
		red, redErr := Reduce(g, p)
		if res.Exact || redErr == nil {
			_, brute, err := labeling.BruteForceExact(g, p)
			if err != nil {
				t.Fatalf("brute force: %v", err)
			}
			if res.Exact && res.Span != brute {
				t.Fatalf("method %s claims exact span %d, brute force says %d (n=%d p=%v)",
					res.Method, res.Span, brute, nv, p)
			}
			if redErr == nil && red.LowerBound() > int64(brute) {
				t.Fatalf("spanning-tree bound %d above λ = %d (n=%d p=%v)", red.LowerBound(), brute, nv, p)
			}
		}
	})
}
