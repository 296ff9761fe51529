package graph

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Unreachable is the distance reported between vertices in different
// connected components.
const Unreachable = ^uint16(0)

// DistMatrix is a dense n×n matrix of BFS distances. Distances are uint16;
// Unreachable marks disconnected pairs. The diagonal is 0. Only
// AllPairsDistancesContext builds one, and it records the diameter and
// connectivity as it goes.
type DistMatrix struct {
	N int
	d []uint16

	diam         int
	disconnected bool
}

// Dist returns dist(u,v).
func (m *DistMatrix) Dist(u, v int) uint16 { return m.d[u*m.N+v] }

// Row returns the distance row of u (shared storage; do not modify).
func (m *DistMatrix) Row(u int) []uint16 { return m.d[u*m.N : (u+1)*m.N] }

// Data returns the whole row-major distance matrix (shared storage; do not
// modify). It backs the compact weight-class TSP instances built by the
// labeling reduction, which index it directly instead of copying it into a
// dense int64 weight matrix.
func (m *DistMatrix) Data() []uint16 { return m.d }

// Max returns the largest finite distance in the matrix (the diameter for a
// connected graph) and whether any pair is unreachable. Both were recorded
// by the BFS that filled the matrix, so Max is O(1).
func (m *DistMatrix) Max() (max int, disconnected bool) { return m.diam, m.disconnected }

// BFSFrom writes BFS distances from src into dist (length n, reused across
// calls), using queue as scratch space (length ≥ n). It returns the number
// of vertices reached (including src). Traversal runs on the CSR view
// (built lazily, shared by all queries), so repeated sweeps touch two flat
// arrays instead of n separately allocated neighbor lists.
func (g *Graph) BFSFrom(src int, dist []uint16, queue []int32) int {
	reached, _ := g.csrData().bfsFrom(src, dist, queue)
	return reached
}

// bfsFromAdj is the adjacency-list BFS the CSR path replaced. It is kept
// as the reference implementation for the bit-identical equivalence tests
// in csr_test.go; production traversals go through csr.bfsFrom.
func (g *Graph) bfsFromAdj(src int, dist []uint16, queue []int32) int {
	g.Normalize()
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue[0] = int32(src)
	head, tail := 0, 1
	for head < tail {
		u := queue[head]
		head++
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue[tail] = v
				tail++
			}
		}
	}
	return tail
}

// AllPairsDistances computes the full BFS distance matrix; see
// AllPairsDistancesContext for the kernels and their cost.
func (g *Graph) AllPairsDistances() *DistMatrix {
	m, _ := g.AllPairsDistancesContext(context.Background())
	return m
}

// minSharing is the sharing rule's threshold: when the first batch
// resolved fewer (source, vertex) pairs per vertex activation than this,
// the remaining batches run the scalar BFS. Near one pair per activation
// the sweep does its mask work for about one source and loses to scalar
// BFS. Sweep time over scalar time on one goroutine, at the first batch's
// sharing (BenchmarkAPSPKernels; Go 1.24, 2-vCPU VM, medians of 5):
// 0.08–0.13 at 38–62 on small-diameter and diameter-2 graphs; 0.66 and
// 1.1 at 7.3 and 6.5 on random trees of 384 and 4096 vertices; 0.59 at
// 4.2 on a 16×16 grid; 0.91 at 3.5 on a 256×4 grid; 1.09 at 2.5 on a
// 32×32 grid; 2.6 at 1.3 on a 64×64 grid; 2.0 at 1.0 on a path of 4096.
// Graphs with n ≤ 64 are one batch and never reach the rule.
const minSharing = 4

// AllPairsDistancesContext computes the full BFS distance matrix with
// cancellation checkpoints: a partial matrix is useless, so cancellation
// returns ctx.Err() and no matrix.
//
// Sources run in batches of 64 through the bit-parallel sweep (csr.sweep),
// which costs O(D·(n+m)) word operations per batch on a graph of diameter
// D — the regime of the paper's reduction, where one vertex visit resolves
// many sources at once. The caller runs the first batch itself and reads
// its sharing: if it fell under minSharing, the remaining batches run the
// scalar csr.bfsFrom one source at a time, O(n+m) each. Only then do
// helpers start for the remaining batches (none when n ≤ 64), up to
// GOMAXPROCS runners including the caller; each claims whole batches with
// one atomic add, writes disjoint rows, and checks ctx at every claim and,
// on the scalar path, at every source. The sweeps also record the deepest
// level and the number of reached pairs, so Max is O(1).
func (g *Graph) AllPairsDistancesContext(ctx context.Context) (*DistMatrix, error) {
	cs := g.csrData()
	n := g.N()
	m := &DistMatrix{N: n, d: make([]uint16, n*n)}
	if n == 0 {
		return m, nil
	}
	done := ctx.Done()
	if canceled(done) {
		return nil, ctx.Err()
	}
	sc := getSweepScratch(n)
	first := cs.sweep(0, m.d, sc)
	scalar := !first.sharesEnough()
	total := apspTally{pairs: first.pairs, depth: first.depth}
	batches := (n + batchSize - 1) / batchSize
	if runners := min(runtime.GOMAXPROCS(0), batches-1); runners > 0 {
		var claim atomic.Int32
		claim.Store(1)
		// run claims batches until none are left or ctx is done; t is the
		// runner's own tally, read only after every runner returned.
		run := func(t *apspTally, sc *sweepScratch) {
			var queue []int32
			if scalar {
				bsc := getBFSScratch(n)
				defer putBFSScratch(bsc)
				queue = bsc.queue
			} else if sc == nil {
				sc = getSweepScratch(n)
				defer putSweepScratch(sc)
			}
			for !canceled(done) {
				b := int(claim.Add(1) - 1)
				if b >= batches {
					return
				}
				lo := b * batchSize
				if !scalar {
					st := cs.sweep(lo, m.d, sc)
					t.add(st.pairs, st.depth)
					continue
				}
				for s := lo; s < min(lo+batchSize, n); s++ {
					if canceled(done) {
						return
					}
					t.add(cs.bfsFrom(s, m.d[s*n:(s+1)*n], queue))
				}
			}
		}
		tallies := make([]apspTally, runners)
		var wg sync.WaitGroup
		for i := 1; i < runners; i++ {
			wg.Add(1)
			go func(t *apspTally) {
				defer wg.Done()
				run(t, nil)
			}(&tallies[i])
		}
		run(&tallies[0], sc)
		wg.Wait()
		for _, t := range tallies {
			total.add(t.pairs, t.depth)
		}
	}
	putSweepScratch(sc)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.diam, m.disconnected = total.depth, total.pairs != n*n
	return m, nil
}

// apspTally accumulates what the APSP runners report: reached (source,
// vertex) pairs and the deepest BFS level.
type apspTally struct{ pairs, depth int }

func (t *apspTally) add(pairs, depth int) {
	t.pairs += pairs
	t.depth = max(t.depth, depth)
}

// canceled reports whether done (a context's Done channel, nil for a
// context that is never canceled) is closed.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// IsConnected reports whether g is connected. Empty graphs are connected.
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	sc := getBFSScratch(n)
	defer putBFSScratch(sc)
	return g.BFSFrom(0, sc.dist, sc.queue) == n
}

// Diameter returns the diameter of g (max finite distance) and whether g is
// connected. For a disconnected graph the diameter of the largest distances
// among connected pairs is returned with connected=false.
func (g *Graph) Diameter() (diam int, connected bool) {
	n := g.N()
	if n == 0 {
		return 0, true
	}
	dm := g.AllPairsDistances()
	max, disc := dm.Max()
	return max, !disc
}

// Eccentricity returns the eccentricity of u (max distance from u), and
// whether u reaches all vertices.
func (g *Graph) Eccentricity(u int) (ecc int, reachesAll bool) {
	n := g.N()
	sc := getBFSScratch(n)
	defer putBFSScratch(sc)
	reached, ecc := g.csrData().bfsFrom(u, sc.dist, sc.queue)
	return ecc, reached == n
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending, ordered by smallest vertex. One traversal labels
// every vertex with its component over a shared label array, and one
// ascending pass over the vertices collects the members: O(n+m) in all.
func (g *Graph) ConnectedComponents() [][]int {
	cs := g.csrData()
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	sc := getBFSScratch(n)
	defer putBFSScratch(sc)
	queue := sc.queue
	var sizes []int
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		c := int32(len(sizes))
		comp[s] = c
		queue[0] = int32(s)
		head, tail := 0, 1
		for head < tail {
			u := queue[head]
			head++
			for _, v := range cs.neighbors(int(u)) {
				if comp[v] < 0 {
					comp[v] = c
					queue[tail] = v
					tail++
				}
			}
		}
		sizes = append(sizes, tail)
	}
	// One backing array; each component's slice is capped at its size, so
	// an append by the caller reallocates instead of overrunning the next.
	flat := make([]int, n)
	comps := make([][]int, len(sizes))
	off := 0
	for c, size := range sizes {
		comps[c] = flat[off : off : off+size]
		off += size
	}
	for v, c := range comp {
		comps[c] = append(comps[c], v)
	}
	return comps
}
