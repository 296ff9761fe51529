package bench

import (
	"fmt"
	"runtime"
	"time"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
	"lpltsp/internal/stats"
	"lpltsp/internal/tsp"
)

// Ablation experiments for the design choices that stand in for the
// paper's algorithms or that the solver makes on its own:
// A1 — which local-search moves earn their keep;
// A2 — exact blossom matching vs greedy matching inside Christofides;
// A3 — parallel vs sequential all-pairs BFS;
// A4 — the tree-specific Chang–Kuo algorithm vs the reduction's scope.

// A1LocalSearch compares move sets on reduced instances: construction
// only, +2opt, +oropt, +3opt, and the full chained engine, measured
// against the exact optimum on sizes the DP can certify.
func A1LocalSearch(cfg Config) *Table {
	t := &Table{
		ID:     "A1",
		Title:  "ablation: local-search move sets (quality vs optimum)",
		Header: []string{"move set", "mean-ratio", "max-ratio", "opt-hits"},
	}
	r := rng.New(cfg.Seed + 21)
	trials := cfg.trials(25)
	type variant struct {
		name string
		run  func(ins *tsp.Instance, seed uint64) tsp.Tour
	}
	variants := []variant{
		{"greedy-construct", func(ins *tsp.Instance, _ uint64) tsp.Tour {
			return tsp.GreedyEdgePath(ins)
		}},
		{"+2opt", func(ins *tsp.Instance, _ uint64) tsp.Tour {
			tr := tsp.GreedyEdgePath(ins)
			tsp.TwoOptPath(ins, tr)
			return tr
		}},
		{"+2opt+oropt", func(ins *tsp.Instance, _ uint64) tsp.Tour {
			tr := tsp.GreedyEdgePath(ins)
			tsp.TwoOptPath(ins, tr)
			tsp.OrOptPath(ins, tr)
			return tr
		}},
		{"+2opt+oropt+3opt", func(ins *tsp.Instance, _ uint64) tsp.Tour {
			tr := tsp.GreedyEdgePath(ins)
			tsp.TwoOptPath(ins, tr)
			tsp.OrOptPath(ins, tr)
			tsp.ThreeOptPath(ins, tr)
			return tr
		}},
		{"chained(full)", func(ins *tsp.Instance, seed uint64) tsp.Tour {
			tr, _ := tsp.ChainedLocalSearch(ins, &tsp.ChainedOptions{Restarts: 4, Kicks: 25, Seed: seed + 1})
			return tr
		}},
	}
	type acc struct {
		ratios []float64
		hits   int
	}
	accs := make([]acc, len(variants))
	for trial := 0; trial < trials; trial++ {
		g := graph.RandomSmallDiameter(r, 16, 3, 0.3)
		p := randomP(r, 3)
		red, err := core.Reduce(g, p)
		if err != nil {
			continue
		}
		_, opt, err := tsp.HeldKarpPath(red.Instance)
		if err != nil {
			continue
		}
		for vi, v := range variants {
			tour := v.run(red.Instance, uint64(trial))
			c := red.Instance.PathCost(tour)
			accs[vi].ratios = append(accs[vi].ratios, stats.Ratio(float64(c), float64(opt)))
			if c == opt {
				accs[vi].hits++
			}
		}
	}
	for vi, v := range variants {
		s := stats.Summarize(accs[vi].ratios)
		t.AddRow(v.name, fmtF(s.Mean), fmtF(s.Max), fmt.Sprintf("%d/%d", accs[vi].hits, s.N))
	}
	return t
}

// A2Matching compares exact blossom matching vs greedy matching inside
// the Christofides-path pipeline.
func A2Matching(cfg Config) *Table {
	t := &Table{
		ID:     "A2",
		Title:  "ablation: Christofides matching — exact blossom vs greedy",
		Header: []string{"matcher", "mean-ratio", "max-ratio", "mean-time"},
	}
	r := rng.New(cfg.Seed + 22)
	trials := cfg.trials(25)
	type acc struct {
		ratios []float64
		total  time.Duration
	}
	var exact, greedy acc
	for trial := 0; trial < trials; trial++ {
		g := graph.RandomSmallDiameter(r, 16, 3, 0.25)
		p := randomP(r, 3)
		red, err := core.Reduce(g, p)
		if err != nil {
			continue
		}
		_, opt, err := tsp.HeldKarpPath(red.Instance)
		if err != nil || opt == 0 {
			continue
		}
		start := time.Now()
		_, c1, err := tsp.ChristofidesPath(red.Instance)
		exact.total += time.Since(start)
		if err != nil {
			continue
		}
		start = time.Now()
		_, c2, err := tsp.ChristofidesPathGreedyMatching(red.Instance)
		greedy.total += time.Since(start)
		if err != nil {
			continue
		}
		exact.ratios = append(exact.ratios, float64(c1)/float64(opt))
		greedy.ratios = append(greedy.ratios, float64(c2)/float64(opt))
	}
	for _, row := range []struct {
		name string
		a    *acc
	}{{"blossom (exact)", &exact}, {"greedy", &greedy}} {
		s := stats.Summarize(row.a.ratios)
		mt := time.Duration(0)
		if s.N > 0 {
			mt = row.a.total / time.Duration(s.N)
		}
		t.AddRow(row.name, fmtF(s.Mean), fmtF(s.Max), fmtDur(mt))
	}
	t.AddNote("guarantee: 1.5 with exact matching; greedy degrades toward 2.0")
	return t
}

// A3ParallelAPSP measures the parallel all-pairs BFS speedup over a
// sequential sweep.
func A3ParallelAPSP(cfg Config) *Table {
	t := &Table{
		ID:     "A3",
		Title:  "ablation: all-pairs BFS — parallel vs sequential",
		Header: []string{"n", "m", "sequential", "parallel", "speedup", "workers"},
	}
	sizes := []int{200, 400, 800}
	if cfg.Scale > 0 {
		sizes = []int{100, 200}
	}
	r := rng.New(cfg.Seed + 23)
	for _, n := range sizes {
		g := graph.RandomConnected(r, n, 4.0/float64(n))
		// Sequential reference.
		start := time.Now()
		dist := make([]uint16, n)
		queue := make([]int32, n)
		for s := 0; s < n; s++ {
			g.BFSFrom(s, dist, queue)
		}
		seq := time.Since(start)
		start = time.Now()
		g.AllPairsDistances()
		par := time.Since(start)
		t.AddRow(fmt.Sprint(n), fmt.Sprint(g.M()), fmtDur(seq), fmtDur(par),
			fmtF(float64(seq)/float64(par)), fmt.Sprint(runtime.GOMAXPROCS(0)))
	}
	return t
}

// A4Trees contrasts the class-specific tree algorithm with the reduction's
// applicability — the paper's §I point that tree algorithms exploit tree
// structure while the TSP route needs small diameter.
func A4Trees(cfg Config) *Table {
	t := &Table{
		ID:     "A4",
		Title:  "trees: Chang–Kuo-style exact vs TSP reduction applicability",
		Header: []string{"n", "Δ", "tree λ", "in {Δ+1,Δ+2}", "reduction verdict", "tree-time"},
	}
	r := rng.New(cfg.Seed + 24)
	sizes := []int{10, 50, 200, 1000}
	if cfg.Scale > 0 {
		sizes = []int{10, 50}
	}
	for _, n := range sizes {
		g := graph.RandomTree(r, n)
		start := time.Now()
		_, span, err := labeling.TreeLambda21(g)
		el := time.Since(start)
		if err != nil {
			t.AddNote("n=%d: %v", n, err)
			continue
		}
		d := g.MaxDegree()
		inRange := "yes"
		if span != d+1 && span != d+2 {
			inRange = "NO"
		}
		verdict := "accepted"
		if _, err := core.Reduce(g, labeling.L21()); err != nil {
			verdict = "rejected (diam>2)"
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(d), fmt.Sprint(span), inRange, verdict, fmtDur(el))
	}
	t.AddNote("the reduction applies only when diam ≤ k; class algorithms cover the rest")
	return t
}

// Ablations runs all ablation tables.
func Ablations(cfg Config) []*Table {
	return []*Table{A1LocalSearch(cfg), A2Matching(cfg), A3ParallelAPSP(cfg), A4Trees(cfg)}
}
