package tsp

import "context"

// twoOptPathFast is the neighbor-list variant of twoOptPath for larger
// instances: each vertex keeps its k nearest neighbors and carries a
// don't-look bit; only moves whose first new edge connects a vertex to one
// of its near neighbors are examined. This is the classical engineering of
// Lin–Kernighan-style 2-opt (Bentley) and makes the sweep close to linear
// per pass in practice.
//
// The result is a 2-opt local optimum with respect to the restricted
// neighborhood only; TwoOptPath (exhaustive) remains the reference
// implementation and the two agree on small instances in tests. A
// cancellation checkpoint sits every few hundred queue pops; along with
// the applied delta (≤ 0) it reports whether the queue drained to a local
// optimum. All working state (neighbor lists, queues, don't-look bits) is
// pooled.
func twoOptPathFast(ctx context.Context, ins *Instance, t Tour, k int) (int64, bool) {
	n := len(t)
	if n < 3 {
		return 0, true
	}
	if k <= 0 {
		k = 10
	}
	if k > n-1 {
		k = n - 1
	}
	sc := getTwoOptScratch(n, k, ins.Classes())
	defer putTwoOptScratch(sc)
	nbr := nearestNeighborsInto(ins, k, sc)
	pos := sc.pos // pos[v] = index of v in t
	for i, v := range t {
		pos[v] = int32(i)
	}
	dontLook, inQueue, queue := sc.dontLook, sc.inQueue, sc.queue
	for i := 0; i < n; i++ {
		dontLook[i] = false
		inQueue[i] = true
		queue[i] = int32(i)
	}
	head, tail := 0, n
	push := func(v int) {
		if !inQueue[v] {
			inQueue[v] = true
			queue[tail%n] = int32(v)
			tail++
		}
	}
	var total int64
	pops := 0
	for head < tail {
		pops++
		if pops&255 == 0 && canceled(ctx) {
			return total, false
		}
		v := int(queue[head%n])
		head++
		inQueue[v] = false
		if dontLook[v] {
			continue
		}
		improvedHere := false
		// Try 2-opt moves that create the edge {v,w} for a near neighbor
		// w. With i < j the two ways to create (t[i],t[j]) are:
		//   A: reverse t[i+1..j]  — junctions (t[i],t[j]) and (t[i+1],t[j+1])
		//   B: reverse t[i..j-1]  — junctions (t[i-1],t[j-1]) and (t[i],t[j])
		// A handles suffix reversals (j = n−1), B handles prefix
		// reversals (i = 0); together they cover the full path 2-opt
		// neighborhood.
		for _, w := range nbr[v*k : (v+1)*k] {
			i, j := int(pos[v]), int(pos[w])
			if i > j {
				i, j = j, i
			}
			if j-i < 1 {
				continue
			}
			newEdge := ins.Weight(t[i], t[j])
			// Move A.
			deltaA := newEdge - ins.Weight(t[i], t[i+1])
			if j+1 < n {
				deltaA += ins.Weight(t[i+1], t[j+1]) - ins.Weight(t[j], t[j+1])
			}
			// Move B.
			deltaB := newEdge - ins.Weight(t[j-1], t[j])
			if i > 0 {
				deltaB += ins.Weight(t[i-1], t[j-1]) - ins.Weight(t[i-1], t[i])
			}
			var lo, hi int
			var delta int64
			switch {
			case deltaA < 0 && deltaA <= deltaB:
				lo, hi, delta = i+1, j, deltaA
			case deltaB < 0:
				lo, hi, delta = i, j-1, deltaB
			default:
				continue
			}
			reverseSeg(t, lo, hi)
			for x := lo; x <= hi; x++ {
				pos[t[x]] = int32(x)
			}
			total += delta
			improvedHere = true
			// Wake the endpoints of every changed edge.
			for _, u := range [2]int{v, int(w)} {
				dontLook[u] = false
				push(u)
			}
			for _, x := range [4]int{lo - 1, lo, hi, hi + 1} {
				if x >= 0 && x < n {
					dontLook[t[x]] = false
					push(t[x])
				}
			}
		}
		if !improvedHere {
			dontLook[v] = true
		} else {
			push(v)
		}
	}
	return total, true
}

// nearestNeighborsInto fills sc.nbr with, for each vertex, its kk nearest
// other vertices by weight (ties broken by index), stored flat with stride
// kk, and returns that slice. The caller guarantees kk ≤ n-1.
//
// Each vertex is bucketed by weight class — one O(n) counting pass per
// vertex, no comparison sort (the ≤k-distinct-weights structure of the
// reduction's instances). Since classOf ranks classes by weight and the
// scan visits vertices in index order, the bucket order is exactly the
// (weight, index) order.
func nearestNeighborsInto(ins *Instance, kk int, sc *twoOptScratch) []int32 {
	n := ins.n
	out := sc.nbr
	if kk == 0 {
		return out[:0]
	}
	classOf, cnt, buckets := ins.classOf, sc.start, sc.bucket
	classes := len(ins.classW)
	cnt = cnt[:classes]
	// One pass per vertex: append u to its weight class's bucket, capped
	// at kk entries per class — no class can contribute more than kk
	// slots to the output, so later arrivals in a full class are
	// irrelevant. Scanning u ascending keeps every bucket index-sorted,
	// and classes are already ranked by weight, so concatenating the
	// buckets yields the (weight, index) order.
	for v := 0; v < n; v++ {
		for c := range cnt {
			cnt[c] = 0
		}
		for u, d := range ins.distRow(v) {
			if u == v {
				continue
			}
			c := classOf[d]
			if filled := cnt[c]; filled < int32(kk) {
				buckets[int(c)*kk+int(filled)] = int32(u)
				cnt[c] = filled + 1
			}
		}
		dst := out[v*kk : (v+1)*kk]
		pos := 0
		for c := 0; c < classes && pos < kk; c++ {
			take := int(cnt[c])
			if take > kk-pos {
				take = kk - pos
			}
			copy(dst[pos:pos+take], buckets[c*kk:c*kk+take])
			pos += take
		}
	}
	return out
}
