// Command lplsolve solves L(p)-LABELING instances read from graph files
// (DIMACS edge format or a bare "n m" edge list) through the planned
// method pipeline.
//
// Usage:
//
//	lplsolve -p 2,1 -algo exact graph.col
//	cat graph.col | lplsolve -p 2,2,1 -algo chained
//	lplsolve -p 2,1 -algo auto -explain graph.col
//	lplsolve -p 2,1 -timeout 5s -algo portfolio big.col
//	lplsolve -p 2,1 -algo portfolio -workers 4 a.col b.col c.col
//
// With one input (file or stdin) the output reports the span, the method
// that solved it (TSP reduction, FPT coloring, tree algorithm,
// pmax-approximation, first-fit fallback, or component decomposition),
// the engine or certificate behind a reduction answer (greedy or
// pathcover when no engine ran), whether it is provably optimal, and the
// labeling. With
// several input files the instances are streamed through a bounded worker
// pool (batch mode) and one summary line is printed per instance as it
// completes; repeated instances are served from the solve cache.
//
// -algo pins a TSP engine, which keeps the solve on the reduction
// whenever it applies ("auto" lets the planner route freely); -method
// pins a planner method outright, restoring the classical typed errors
// when its preconditions fail. -explain prints the routing decision —
// every method's applicability verdict — plus whether the result came
// from the cache.
//
// -timeout bounds each solve; anytime engines (bnb, chained, 2opt, 3opt,
// portfolio) return their best labeling found so far when it fires.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"lpltsp"
)

func main() {
	var (
		pFlag    = flag.String("p", "2,1", "constraint vector p, comma-separated (e.g. 2,1)")
		algoFlag = flag.String("algo", "exact", "engine: exact|heldkarp|bnb|christofides|chained|2opt|3opt|nn|greedy|portfolio, or auto to let the planner route freely")
		method   = flag.String("method", "", "pin a planner method: reduction|tree|fpt-coloring|pmax-approx|greedy (empty = plan automatically)")
		explain  = flag.Bool("explain", false, "print the routing decision (chosen method, applicability reasons, cache hit/miss)")
		noCache  = flag.Bool("nocache", false, "bypass the solve cache")
		timeout  = flag.Duration("timeout", 0, "deadline per instance (0 = none); anytime engines return their incumbent")
		workers  = flag.Int("workers", 0, "concurrent instances in batch mode (0 = half the CPUs; each solve parallelizes internally)")
		seed     = flag.Uint64("seed", 1, "seed for randomized engines")
		restarts = flag.Int("restarts", 0, "chained engine restarts (0 = auto)")
		kicks    = flag.Int("kicks", 0, "chained engine kicks per restart (0 = auto)")
		quiet    = flag.Bool("q", false, "print only the span (one line per instance in batch mode)")
	)
	flag.Parse()

	p, err := parseVector(*pFlag)
	if err != nil {
		fatal(err)
	}
	algo := *algoFlag
	if algo == "auto" {
		algo = ""
	}
	opts := &lpltsp.Options{
		Method:    lpltsp.Method(*method),
		Algorithm: lpltsp.Algorithm(algo),
		Chained:   &lpltsp.ChainedOptions{Restarts: *restarts, Kicks: *kicks, Seed: *seed},
		Verify:    true,
		NoCache:   *noCache,
		Deadline:  *timeout,
	}
	ctx := context.Background()

	if flag.NArg() > 1 {
		os.Exit(runBatch(ctx, flag.Args(), p, opts, *workers, *quiet))
	}

	in := os.Stdin
	name := "<stdin>"
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	g, err := lpltsp.ReadGraph(in)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	res, err := lpltsp.SolveContext(ctx, g, p, opts)
	if err != nil {
		fatal(err)
	}
	if *explain && res.Plan != nil {
		// The result carries the routing decision that produced it, so
		// explaining costs no second probe.
		printPlan(os.Stdout, res.Plan, "")
	}
	if *quiet {
		fmt.Println(res.Span)
		return
	}
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("p: %v  method: %s%s  exact: %v%s%s\n",
		p, res.Method, engineSuffix(res), res.Exact, approxSuffix(res), truncatedSuffix(res))
	if *explain {
		fmt.Printf("cache: %s\n", hitMiss(res.CacheHit))
	}
	fmt.Printf("span: %d\n", res.Span)
	fmt.Printf("reduce: %v  solve: %v\n", res.ReduceTime, res.SolveTime)
	if res.Tour != nil {
		fmt.Printf("ordering: %v\n", []int(res.Tour))
	}
	fmt.Printf("labeling:\n")
	for v, l := range res.Labeling {
		fmt.Printf("  %4d -> %d\n", v, l)
	}
}

// printPlan renders a routing decision: the chosen method, the instance
// shape, one verdict line per candidate method, and (recursively) the
// per-component sub-plans of a decomposed disconnected input.
func printPlan(w io.Writer, pl *lpltsp.Plan, indent string) {
	forced := ""
	if pl.Forced {
		forced = " (forced)"
	} else if pl.AlgorithmPinned {
		forced = " (engine pinned)"
	}
	fmt.Fprintf(w, "%splan: method=%s%s n=%d m=%d components=%d\n",
		indent, pl.Chosen, forced, pl.N, pl.M, pl.Components)
	for _, c := range pl.Candidates {
		mark := "✗"
		quality := ""
		if c.Applicable {
			mark = "✓"
			switch {
			case c.Exact:
				quality = " [exact]"
			case c.Approx > 0:
				quality = fmt.Sprintf(" [≤ %.3g·λ]", c.Approx)
			default:
				quality = " [heuristic]"
			}
		}
		fmt.Fprintf(w, "%s  %s %-13s%s %s\n", indent, mark, c.Method, quality, c.Reason)
	}
	for i, sub := range pl.Sub {
		fmt.Fprintf(w, "%s  component %d:\n", indent, i)
		printPlan(w, sub, indent+"    ")
	}
}

// runBatch streams the named graph files through SolveBatch and prints one
// line per instance as it finishes. Files are parsed lazily inside the
// worker pool, so only ~workers graphs are in memory at once; a file that
// fails to load is reported as a failed instance (like a failed solve)
// without aborting the rest of the batch. Returns the process exit code.
func runBatch(ctx context.Context, files []string, p lpltsp.Vector, opts *lpltsp.Options, workers int, quiet bool) int {
	t0 := time.Now()
	failed := 0
	items := make([]lpltsp.BatchItem, 0, len(files))
	for _, path := range files {
		items = append(items, lpltsp.BatchItem{
			ID:   path,
			P:    p,
			Load: func() (*lpltsp.Graph, error) { return readGraphFile(path) },
		})
	}
	for br := range lpltsp.SolveBatch(ctx, items, &lpltsp.BatchOptions{Workers: workers, Options: opts}) {
		switch {
		case br.Err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "lplsolve: %s: %v\n", br.ID, br.Err)
		case quiet:
			fmt.Printf("%s %d\n", br.ID, br.Result.Span)
		default:
			fmt.Printf("%s: span=%d method=%s%s%s exact=%v%s n=%d solve=%v\n",
				br.ID, br.Result.Span, br.Result.Method, engineSuffix(br.Result),
				cacheSuffix(br.Result), br.Result.Exact, truncatedSuffix(br.Result),
				len(br.Result.Labeling), br.Result.SolveTime.Round(time.Microsecond))
		}
	}
	if !quiet {
		st := lpltsp.CacheStats()
		fmt.Printf("batch: %d instances, %d failed, cache %d/%d hits, wall %v\n",
			len(files), failed, st.Hits, st.Hits+st.Misses, time.Since(t0).Round(time.Millisecond))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func readGraphFile(path string) (*lpltsp.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lpltsp.ReadGraph(f)
}

// engineSuffix names the TSP engine behind a reduction-method result,
// including the portfolio winner when the race was won by someone else.
func engineSuffix(res *lpltsp.Result) string {
	if res.Algorithm == "" {
		return ""
	}
	if res.Winner != "" && res.Winner != res.Algorithm {
		return fmt.Sprintf(" (engine %s, won by %s)", res.Algorithm, res.Winner)
	}
	return fmt.Sprintf(" (engine %s)", res.Algorithm)
}

func approxSuffix(res *lpltsp.Result) string {
	if res.Exact || res.Approx == 0 {
		return ""
	}
	return fmt.Sprintf("  (≤ %.3g·λ)", res.Approx)
}

func cacheSuffix(res *lpltsp.Result) string {
	if res.CacheHit {
		return " cache=hit"
	}
	return ""
}

func truncatedSuffix(res *lpltsp.Result) string {
	if res.Truncated {
		return "  (deadline: best-so-far)"
	}
	return ""
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func parseVector(s string) (lpltsp.Vector, error) {
	parts := strings.Split(s, ",")
	p := make(lpltsp.Vector, 0, len(parts))
	for _, part := range parts {
		x, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad p entry %q: %v", part, err)
		}
		p = append(p, x)
	}
	return p, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lplsolve:", err)
	os.Exit(1)
}
