package bench

import (
	"fmt"
	"sync"
	"testing"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
	"lpltsp/internal/tsp"
)

// Concurrent-throughput harness for the serving core (BENCH_PR5.json).
//
// BenchmarkCacheContention measures repeated-solve throughput — the
// dominant steady-state service pattern, where every request after the
// first is answered from shared state — at goroutine counts 1/4/16. On
// the single-mutex cache every one of those requests serializes on one
// lock (and pays fingerprint + key-building work per op); the sharded
// cache plus memoized fingerprints keeps the serialized section to a
// per-shard pointer move.
//
// BenchmarkServeThroughput measures the same pattern end-to-end through
// the live HTTP handler (decode → admit → solve → encode) via the
// load-* scenarios.

// contentionPool builds the instance working set: distinct graphs large
// enough that per-request fingerprint/key work is visible, solved once so
// the measured loop is pure repeated-solve traffic.
func contentionPool(b *testing.B, distinct, n int) ([]*graph.Graph, *core.Options) {
	b.Helper()
	r := rng.New(77)
	pool := make([]*graph.Graph, distinct)
	opts := &core.Options{Algorithm: tsp.AlgoTwoOpt, Verify: true}
	for i := range pool {
		pool[i] = graph.RandomSmallDiameter(r, n, 3, 0.05)
		if _, err := core.Solve(pool[i], labeling.Vector{2, 2, 1}, opts); err != nil {
			b.Fatal(err)
		}
	}
	return pool, opts
}

func BenchmarkCacheContention(b *testing.B) {
	core.ResetSolveCache()
	defer core.ResetSolveCache()
	pool, opts := contentionPool(b, 64, 160)
	p := labeling.Vector{2, 2, 1}
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			var wg sync.WaitGroup
			ops := b.N
			b.ResetTimer()
			for g := 0; g < par; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < ops; i += par {
						res, err := core.Solve(pool[i%len(pool)], p, opts)
						if err != nil {
							b.Error(err)
							return
						}
						if !res.CacheHit {
							b.Errorf("warm pool missed the cache (op %d)", i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func BenchmarkServeThroughput(b *testing.B) {
	// Sub-benchmark names are load-bearing: BENCH_PR5/PR6 compare
	// "clients=%d" runs across commits, so the full-body JSON runs keep
	// their bare names and the other traffic modes get prefixed ones.
	for _, mode := range []struct{ prefix, scenario string }{
		{"", "load-json"}, {"graphref/", "load-graphref"}, {"binary/", "load-binary"},
	} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%sclients=%d", mode.prefix, clients), func(b *testing.B) {
				b.ReportAllocs()
				s := scenario(b, mode.scenario)
				s.Clients, s.Requests, s.Distinct, s.N = clients, b.N, 16, 64
				s.Server.QueueDepth = 1 << 20
				rep := mustRun(b, s)
				b.ReportMetric(rep.Throughput, "req/s")
				b.ReportMetric(rep.Metrics["bytesPerReq"], "wire-B/req")
			})
		}
	}
}
