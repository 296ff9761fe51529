package graph

import "sync"

// bfsScratch bundles the per-traversal buffers of a BFS sweep so repeated
// queries (connectivity probes, eccentricities, the APSP worker loop) reuse
// one heap object instead of allocating dist/queue pairs per call. The
// buffers carry no data between uses — bfsFrom rewrites dist fully and the
// queue is write-before-read.
type bfsScratch struct {
	dist  []uint16
	queue []int32
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// getBFSScratch returns a scratch with both buffers sized for n vertices.
func getBFSScratch(n int) *bfsScratch {
	sc := bfsPool.Get().(*bfsScratch)
	if cap(sc.dist) < n {
		sc.dist = make([]uint16, n)
		sc.queue = make([]int32, n)
	}
	sc.dist = sc.dist[:n]
	sc.queue = sc.queue[:n]
	return sc
}

func putBFSScratch(sc *bfsScratch) { bfsPool.Put(sc) }

// sweepScratch backs the bit-parallel batch sweep: three source masks per
// vertex (seen, frontier, next) and the active and touched vertex lists.
// csr.sweep clears the masks before each batch, so nothing carries over.
type sweepScratch struct {
	seen, front, next []uint64
	active, touched   []int32
}

var sweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// getSweepScratch returns a scratch with every buffer sized for n vertices.
func getSweepScratch(n int) *sweepScratch {
	sc := sweepPool.Get().(*sweepScratch)
	if cap(sc.seen) < n {
		sc.seen = make([]uint64, n)
		sc.front = make([]uint64, n)
		sc.next = make([]uint64, n)
		sc.active = make([]int32, n)
		sc.touched = make([]int32, n)
	}
	sc.seen, sc.front, sc.next = sc.seen[:n], sc.front[:n], sc.next[:n]
	sc.active, sc.touched = sc.active[:n], sc.touched[:n]
	return sc
}

func putSweepScratch(sc *sweepScratch) { sweepPool.Put(sc) }
