package core

import (
	"context"
	"runtime"
	"sync"

	"lpltsp/internal/fault"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
)

// BatchItem is one instance of a batch solve: a graph, its constraint
// vector, and a caller-chosen identifier (a file name, a request id) that
// is echoed back on the result stream.
type BatchItem struct {
	ID string
	G  *graph.Graph
	P  labeling.Vector
	// Load, when non-nil, supplies the graph lazily inside the worker
	// just before solving, so a large batch holds only ~Workers graphs in
	// memory instead of all of them (G is ignored in that case). A Load
	// error is reported as the item's BatchResult.Err.
	Load func() (*graph.Graph, error)
}

// BatchResult is one element of the SolveBatch result stream. Exactly one
// of Result/Err is set. Index is the item's position in the input slice,
// so consumers can reorder the stream if they need input order.
type BatchResult struct {
	Index  int
	ID     string
	Result *Result
	Err    error
}

// BatchOptions configures SolveBatch.
type BatchOptions struct {
	// Workers bounds the number of instances solved concurrently.
	// Default: half of GOMAXPROCS (at least 1) — each solve already fans
	// out internally (parallel APSP, chained restarts, portfolio racing),
	// so one batch worker per core would oversubscribe the CPU and
	// multiply peak memory by live distance matrices.
	Workers int
	// Options is applied to every item (Algorithm may be AlgoPortfolio;
	// Deadline bounds each item individually).
	Options *Options
}

// SolveBatch solves many labeling instances through one bounded worker
// pool and streams results on the returned channel as they complete (not
// in input order; BatchResult.Index recovers input order). The channel is
// closed after the last result. Without cancellation every input item
// yields exactly one BatchResult. Cancelling ctx ends the stream early:
// the intake stops, in-flight solves stop at their engines' cancellation
// checkpoints, their results (including anytime best-so-far labelings)
// are still delivered, and the channel closes.
//
// The consumer MUST read the channel until it closes, including after
// cancelling ctx — the pool's goroutines block on delivery otherwise.
//
// Each item flows through the planned pipeline (plan → method → engine),
// so mixed batches route per item — diameter-2 instances to the partition
// DP, disconnected ones through component decomposition, and so on — and
// verified results are memoized in the solve cache: duplicate instances
// in steady-state traffic are served from the cache (Result.CacheHit)
// without redoing the reduction. Duplicates that land on concurrent
// workers coalesce through the cache's singleflight layer — one worker
// leads the solve, the others receive its result with Result.Coalesced
// set — so a batch of N copies of one instance performs one solve no
// matter how the pool schedules it.
//
// Memory behavior: every item's reduction builds a compact weight-class
// instance over its own distance matrix (no n²·int64 weight copy), and
// the TSP engines draw their hot-path scratch from package-level pools
// shared across all workers. Steady-state batch throughput therefore
// allocates per item only the result (labeling, tour, distance matrix),
// not per-solve engine state; cache hits allocate only the copied result.
func SolveBatch(ctx context.Context, items []BatchItem, opts *BatchOptions) <-chan BatchResult {
	workers := runtime.GOMAXPROCS(0) / 2
	if workers < 1 {
		workers = 1
	}
	var solveOpts *Options
	if opts != nil {
		if opts.Workers > 0 {
			workers = opts.Workers
		}
		solveOpts = opts.Options
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make(chan BatchResult, workers+1)
	if len(items) == 0 {
		close(out)
		return out
	}

	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range feed {
				// Unconditional send: a cancelled run's anytime results
				// must still reach a draining consumer (see the
				// read-until-close contract above).
				out <- solveBatchItem(ctx, items[idx], idx, solveOpts)
			}
		}()
	}
	go func() {
		defer close(feed)
		for idx := range items {
			select {
			case feed <- idx:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// solveBatchItem runs one batch item under the worker's recover
// boundary. SolveContext contains its own panics already; this guard
// covers the worker-only code around it — above all the caller-supplied
// Load — so a panic costs one item's result, never the pool goroutine
// (which would strand the result stream short of closing).
func solveBatchItem(ctx context.Context, it BatchItem, idx int, solveOpts *Options) (br BatchResult) {
	br = BatchResult{Index: idx, ID: it.ID}
	defer func() {
		if v := recover(); v != nil {
			br.Result, br.Err = nil, cacheFor(solveOpts).capturePanic(panicSiteBatch, v)
		}
	}()
	fault.Visit(ctx, fault.SiteCoreBatch)
	g := it.G
	if it.Load != nil {
		g, br.Err = it.Load()
	}
	if br.Err == nil {
		br.Result, br.Err = SolveContext(ctx, g, it.P, solveOpts)
	}
	return br
}
