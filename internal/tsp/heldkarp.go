package tsp

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// Held–Karp exact dynamic programming over vertex subsets: O(2ⁿ·n²) time,
// O(2ⁿ·n) space. This is the algorithm behind Corollary 1 of the paper: via
// the reduction, L(p)-LABELING on diameter-≤k graphs is solved exactly in
// O(2ⁿ·n²).
//
// The DP is parallelized per subset-cardinality layer: all masks with the
// same popcount depend only on the previous layer, so each layer is split
// across GOMAXPROCS workers with no locking (each worker writes disjoint
// dp rows).

// HeldKarpMaxN bounds the instance size accepted by the exact DP; above it
// the dp table (2ⁿ·n int32 + 2ⁿ·n int8) would exceed a few GiB.
const HeldKarpMaxN = 24

// HeldKarpPath solves METRIC PATH TSP with free endpoints exactly.
// It returns an optimal Hamiltonian path and its cost.
func HeldKarpPath(ins *Instance) (Tour, int64, error) {
	return heldKarp(context.Background(), ins)
}

// heldKarp is HeldKarpPath with cooperative cancellation: the DP checks
// ctx between subset-cardinality layers (and within large ones) and
// returns ctx.Err() when cancelled, since it has no meaningful incumbent
// before completion.
func heldKarp(ctx context.Context, ins *Instance) (Tour, int64, error) {
	n := ins.n
	if n > HeldKarpMaxN {
		return nil, 0, fmt.Errorf("tsp: Held–Karp limited to n <= %d, got %d", HeldKarpMaxN, n)
	}
	switch n {
	case 0:
		return Tour{}, 0, nil
	case 1:
		return Tour{0}, 0, nil
	case 2:
		return Tour{0, 1}, ins.Weight(0, 1), nil
	}

	if canceled(ctx) {
		return nil, 0, ctx.Err()
	}
	size := 1 << uint(n)
	sc := getHKScratch(size, n)
	defer putHKScratch(sc)
	dp, par := sc.dp, sc.par
	const inf32 = int32(math.MaxInt32 / 2)
	// The table is ~2 GiB at n = HeldKarpMaxN; faulting it in during this
	// fill can take longer than whole layers, so the fill gets its own
	// cancellation checkpoints.
	for lo := 0; lo < len(dp); lo += 1 << 22 {
		if canceled(ctx) {
			return nil, 0, ctx.Err()
		}
		hi := lo + 1<<22
		if hi > len(dp) {
			hi = len(dp)
		}
		for i := lo; i < hi; i++ {
			dp[i] = inf32
		}
	}
	// Seed singletons: every vertex may start the path.
	for v := 0; v < n; v++ {
		dp[(1<<uint(v))*n+v] = 0
	}

	// Translate the distance rows into int32 weight rows through the
	// class lut, with one overflow check per class (the lut is tiny) and
	// no assumption on how large the distance values themselves are.
	w32 := sc.w32
	for _, w := range ins.lut {
		if w > math.MaxInt32/4 {
			return nil, 0, fmt.Errorf("tsp: weight %d too large for Held–Karp int32 DP", w)
		}
	}
	lut := ins.lut
	for i := 0; i < n; i++ {
		row := w32[i*n : (i+1)*n]
		for j, d := range ins.distRow(i) {
			row[j] = int32(lut[d])
		}
	}

	// Layer-by-layer processing (masks grouped by popcount), parallel
	// within a layer.
	masks := sc.masks[:0]
	workers := runtime.GOMAXPROCS(0)
	for sz := 2; sz <= n; sz++ {
		if canceled(ctx) {
			return nil, 0, ctx.Err()
		}
		masks = masks[:0]
		// Gosper's hack enumerates all n-bit masks with popcount sz.
		m := (1 << uint(sz)) - 1
		for m < size {
			masks = append(masks, m)
			c := m & -m
			r := m + c
			m = (((r ^ m) >> 2) / c) | r
		}
		sc.masks = masks // keep the grown buffer pooled
		if !processLayer(ctx, masks, dp, par, w32, n, workers) {
			// A chunk bailed out mid-layer, so this layer's dp rows are
			// unusable. (A cancellation that lands after the final layer
			// completed does NOT discard the finished DP — the optimum is
			// already computed and reconstruction is cheap.)
			return nil, 0, ctx.Err()
		}
	}

	full := size - 1
	// Extract optimum.
	best := inf32
	bestEnd := -1
	for v := 0; v < n; v++ {
		if c := dp[full*n+v]; c < best {
			best = c
			bestEnd = v
		}
	}
	if bestEnd < 0 {
		return nil, 0, fmt.Errorf("tsp: no feasible tour (unexpected for complete instance)")
	}
	// Reconstruct.
	tour := make(Tour, n)
	mask := full
	v := bestEnd
	for i := n - 1; i >= 0; i-- {
		tour[i] = v
		p := int(par[mask*n+v])
		mask &^= 1 << uint(v)
		v = p
	}
	return tour, int64(best), nil
}

// processLayer relaxes every mask in the layer: dp[mask][v] =
// min over u in mask\{v} of dp[mask^v][u] + w(u,v). Large layers are split
// into bounded slices so a cancelled context is noticed mid-layer (the
// middle layers near n = HeldKarpMaxN hold millions of masks — far too
// much work to run uninterruptibly between layer-boundary checks).
// processLayer reports whether the layer was fully relaxed (false means a
// chunk noticed cancellation and bailed early).
func processLayer(ctx context.Context, masks []int, dp []int32, par []int8, w32 []int32, n, workers int) bool {
	if len(masks) < 64 || workers <= 1 {
		return layerChunk(ctx, masks, dp, par, w32, n)
	}
	var wg sync.WaitGroup
	chunk := (len(masks) + workers - 1) / workers
	nchunks := (len(masks) + chunk - 1) / chunk
	oks := make([]bool, nchunks)
	for c := 0; c < nchunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > len(masks) {
			hi = len(masks)
		}
		wg.Add(1)
		go func(ms []int, ok *bool) {
			defer wg.Done()
			*ok = layerChunk(ctx, ms, dp, par, w32, n)
		}(masks[lo:hi], &oks[c])
	}
	wg.Wait()
	for _, ok := range oks {
		if !ok {
			return false
		}
	}
	return true
}

// layerChunkCtxStride is how many masks each worker relaxes between
// cancellation checks (a mask costs O(n²), so this is ~1M ops).
const layerChunkCtxStride = 4096

// layerChunk reports whether it relaxed every mask (false = cancelled).
func layerChunk(ctx context.Context, masks []int, dp []int32, par []int8, w32 []int32, n int) bool {
	const inf32 = int32(math.MaxInt32 / 2)
	for mi, mask := range masks {
		if mi&(layerChunkCtxStride-1) == 0 && canceled(ctx) {
			return false
		}
		base := mask * n
		rest := mask
		for rest != 0 {
			v := trailingZeros(rest)
			rest &= rest - 1
			prev := mask &^ (1 << uint(v))
			pbase := prev * n
			wrow := w32[v*n:]
			best := inf32
			bestU := int8(-1)
			scan := prev
			for scan != 0 {
				u := trailingZeros(scan)
				scan &= scan - 1
				if c := dp[pbase+u]; c < inf32 {
					if c += wrow[u]; c < best {
						best = c
						bestU = int8(u)
					}
				}
			}
			if bestU >= 0 {
				dp[base+v] = best
				par[base+v] = bestU
			}
		}
	}
	return true
}

func trailingZeros(x int) int { return bits.TrailingZeros32(uint32(x)) }
