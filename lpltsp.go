// Package lpltsp solves distance-constrained graph labeling problems
// (L(p₁,…,p_k)-LABELING) on small-diameter graphs by reduction to METRIC
// PATH TSP, implementing the algorithm suite of
//
//	Hanaka, Ono, Sugiyama: "Solving Distance-constrained Labeling
//	Problems for Small Diameter Graphs via TSP", IPDPS 2023
//	(arXiv:2303.01290).
//
// An L(p)-labeling assigns nonnegative integer labels to vertices so that
// vertices at distance d receive labels differing by at least p_d; the
// goal is to minimize the span (largest label). For p = (2,1) this is the
// classical frequency-assignment problem. When the graph's diameter is at
// most k = len(p) and pmax ≤ 2·pmin, the problem is equivalent to finding
// a minimum-weight Hamiltonian path of the complete graph weighted by
// w(u,v) = p_{dist(u,v)} (Theorem 2); this package builds that reduction
// and drives exact, approximate, and heuristic TSP engines through it.
//
// # The planned pipeline
//
// Solve is total over inputs: a method planner probes every instance
// (connectivity, diameter via one APSP, the shape of p) and routes it to
// the cheapest applicable algorithm from the paper's suite —
//
//   - the Theorem 2 TSP reduction (exact engines, the 1.5-approximation,
//     heuristics, or the portfolio race),
//   - the Corollary 2 PARTITION INTO PATHS route on diameter-2 graphs,
//   - the Theorem 4 FPT coloring for uniform p = (c,…,c),
//   - the exact Chang–Kuo-style tree algorithm for L(2,1) on trees,
//   - the Corollary 3 pmax-approximation when the reduction's hypotheses
//     fail, and
//   - a first-fit fallback so no input is ever rejected.
//
// Disconnected graphs are decomposed into components solved independently
// (λ is the max over components). Result.Method, Result.Exact, and
// Result.Approx record the route taken and its guarantee; Explain returns
// the routing decision — every method's applicability verdict — without
// solving. Options.Method pins a method (restoring the classical typed
// errors when it does not apply) and Options.Algorithm pins a TSP engine,
// which biases the planner toward the reduction.
//
// # Quick start
//
//	g := lpltsp.NewGraph(4)
//	g.AddEdge(0, 1)
//	g.AddEdge(1, 2)
//	g.AddEdge(2, 3)
//	g.AddEdge(3, 0)
//	res, err := lpltsp.Solve(g, lpltsp.L21(), nil) // exact λ_{2,1}(C4) = 4
//
// # Deadlines, portfolios, and batches
//
// Every solver entry point has a context form. The TSP engines behind the
// reduction check for cancellation cooperatively, and the anytime engines
// (branch and bound, the chained local search, the 2-opt family) return
// their best-so-far labeling when the deadline fires instead of failing:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	res, err := lpltsp.SolveContext(ctx, g, p, &lpltsp.Options{Algorithm: lpltsp.AlgoChained})
//
// Portfolio races exact and heuristic engines concurrently over one shared
// reduction and returns the best verified labeling — the exact engine, or
// any engine whose path meets the spanning-tree lower bound, ends the race
// when it finishes, and the heuristics cover the case where the deadline
// fires first:
//
//	res, err := lpltsp.Portfolio(ctx, g, p) // or Options{Algorithm: lpltsp.AlgoPortfolio}
//
// SolveBatch pushes many instances through a bounded worker pool and
// streams results as they complete:
//
//	items := []lpltsp.BatchItem{{ID: "a", G: g1, P: p}, {ID: "b", G: g2, P: p}}
//	for br := range lpltsp.SolveBatch(ctx, items, nil) {
//		// br.ID, br.Result, br.Err
//	}
//
// Engines are picked by name: Options.Algorithm (and the CLIs' -algo
// flag) accepts any name in the fixed set Algorithms() lists, or
// AlgoPortfolio. Methods are picked the same way one layer up, through
// Options.Method and the Method* constants.
//
// # Memoization
//
// Verified results are memoized in the library's sharded LRU keyed by a
// canonical instance fingerprint (structural graph hash, p, and the
// result-affecting options), consulted by Solve, SolveBatch, and
// Portfolio: steady-state traffic with duplicate instances returns the
// cached labeling with Result.CacheHit set instead of redoing the
// reduction. The cache is fronted by singleflight coalescing — N
// concurrent identical solves run exactly one underlying computation;
// the followers get the leader's result with Result.Coalesced set and
// the shared solve is cancelled only when the last interested caller
// disconnects. Cache entries are deep copies both ways and hold no
// distance matrices, so hits are race-free and the footprint stays
// linear. Opt out per solve with Options.NoCache; observe and clear it
// with CacheStats and ResetCache. A ServeHandler never touches this
// cache: each one builds its own unless ServeConfig.Cache names one.
//
// # Performance
//
// Reduced instances are stored compactly: since w(u,v) = p[dist(u,v)-1]
// takes at most k distinct values, the solver keeps only the uint16
// distance matrix (shared read-only by all concurrent engines) plus a
// k-entry weight table instead of a dense n²·int64 matrix — 5× less
// instance memory — and the engines exploit the weight-class structure
// (bucketed neighbor lists, counting-sorted edge sweeps) and pool all
// hot-path scratch, so portfolio races and steady-state batches allocate
// essentially only their results.
//
// Beyond the core reduction the package exposes the paper's companion
// results: the 1.5-approximation and O(2ⁿn²) exact algorithm (Corollary
// 1), the PARTITION INTO PATHS equivalence on diameter-2 graphs
// (Corollary 2), the FPT algorithm for L(1,…,1) via coloring powers
// (Theorem 4), the pmax-approximation (Corollary 3), and the graph
// parameters nd and mw with their propositions.
package lpltsp

import (
	"context"
	"io"
	"net/http"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/modular"
	"lpltsp/internal/service"
	"lpltsp/internal/tsp"
)

// Graph is a simple undirected graph on vertices 0..N()-1.
type Graph = graph.Graph

// NewGraph returns an edgeless graph on n vertices. Add edges with
// AddEdge; all query methods normalize lazily.
func NewGraph(n int) *Graph { return graph.New(n) }

// Vector is the constraint vector p = (p1,…,pk).
type Vector = labeling.Vector

// Labeling assigns a label to every vertex.
type Labeling = labeling.Labeling

// Result is a solver outcome: the labeling, its span, the underlying
// Hamiltonian path, and provenance.
type Result = core.Result

// Options configures Solve. Zero value = exact engine with no extras.
type Options = core.Options

// Algorithm names a TSP engine; see the Algo* constants.
type Algorithm = tsp.Algorithm

// TSP engine names accepted in Options.Algorithm.
const (
	// AlgoExact picks Held–Karp or branch and bound automatically.
	AlgoExact = tsp.AlgoExact
	// AlgoHeldKarp is the O(2ⁿn²) dynamic program of Corollary 1.
	AlgoHeldKarp = tsp.AlgoHeldKarp
	// AlgoBnB is branch and bound with MST lower bounds.
	AlgoBnB = tsp.AlgoBnB
	// AlgoChristofides is the polynomial 1.5-approximation of Corollary 1.
	AlgoChristofides = tsp.AlgoChristofides
	// AlgoChained is the chained local-search heuristic (the paper's
	// "use Lin–Kernighan-style engines" recipe).
	AlgoChained = tsp.AlgoChained
	// AlgoTwoOpt is greedy construction + 2-opt + Or-opt.
	AlgoTwoOpt = tsp.AlgoTwoOpt
	// AlgoThreeOpt is AlgoTwoOpt plus a 3-opt polishing pass.
	AlgoThreeOpt = tsp.AlgoThreeOpt
	// AlgoNearestNeighbor is multi-start nearest neighbor.
	AlgoNearestNeighbor = tsp.AlgoNearestNeighbor
	// AlgoGreedyEdge is greedy edge construction.
	AlgoGreedyEdge = tsp.AlgoGreedyEdge
	// AlgoPortfolio races a roster of engines concurrently and keeps the
	// best verified labeling (see Portfolio).
	AlgoPortfolio = core.AlgoPortfolio
	// AlgoPathCover is the provenance of a reduction solve answered by
	// an exact path cover on a two-weight instance; it cannot be pinned.
	AlgoPathCover = core.AlgoPathCover
)

// Algorithms lists every engine name (AlgoPortfolio is a meta-engine
// composed of these and is not listed).
func Algorithms() []Algorithm { return tsp.Algorithms() }

// ChainedOptions tunes the chained heuristic engine.
type ChainedOptions = tsp.ChainedOptions

// L21 returns the classical p = (2,1).
func L21() Vector { return labeling.L21() }

// Ones returns p = (1,…,1) of dimension k.
func Ones(k int) Vector { return labeling.Ones(k) }

// Reduction-applicability errors (test with errors.Is). The planner
// routes around these conditions automatically; they are returned by the
// direct entry points (Portfolio, SolveDiameter2) and by solves that pin
// Options.Method to a method whose hypotheses fail.
var (
	ErrDisconnected      = core.ErrDisconnected
	ErrDiameterExceedsK  = core.ErrDiameterExceedsK
	ErrConditionViolated = core.ErrConditionViolated
)

// Method names a solving method in the planner's registry; see the
// Method* constants and Options.Method.
type Method = core.MethodName

// Methods of the planner's registry, accepted in Options.Method.
const (
	// MethodReduction is the Theorem 2 TSP reduction, which answers
	// two-weight instances (Corollary 2) by a path cover where it can.
	MethodReduction = core.MethodReduction
	// MethodTree is the exact L(2,1) tree algorithm.
	MethodTree = core.MethodTree
	// MethodFPTColoring is the Theorem 4 coloring of Gᵏ for uniform p.
	MethodFPTColoring = core.MethodFPTColoring
	// MethodPmaxApprox is the Corollary 3 pmax-approximation fallback.
	MethodPmaxApprox = core.MethodPmaxApprox
	// MethodGreedy is the always-applicable first-fit fallback.
	MethodGreedy = core.MethodGreedy
	// MethodComponents tags decomposed solves of disconnected inputs.
	MethodComponents = core.MethodComponents
	// MethodTrivial tags the n ≤ 1 / pmax = 0 fast path.
	MethodTrivial = core.MethodTrivial
)

// Plan is a routing decision: the chosen method plus every registered
// method's applicability verdict (and per-component sub-plans for
// disconnected inputs). Results carry the plan that produced them.
type Plan = core.Plan

// Candidate is one method's applicability verdict inside a Plan.
type Candidate = core.Candidate

// Explain plans an instance without solving it: which method Solve would
// route it to, and why each method does or does not apply. This is the
// API behind lplsolve -explain.
func Explain(g *Graph, p Vector, opts *Options) (*Plan, error) {
	return core.Explain(context.Background(), g, p, opts)
}

// CacheStats returns the hit/miss/eviction/entry counters of the
// library's solve cache consulted by Solve, SolveBatch, and Portfolio.
func CacheStats() core.CacheStats { return core.SolveCacheStats() }

// ResetCache empties the solve cache and zeroes its counters.
func ResetCache() { core.ResetSolveCache() }

// The lplserve HTTP service, embeddable in any mux. See the service wire
// types (SolveRequest and friends) for the JSON format and cmd/lplserve
// for the standalone binary.

// ServeConfig tunes the HTTP service: worker-pool size, admission-queue
// depth (429 beyond it), deadline clamps, and instance-size limits.
type ServeConfig = service.Config

// SolveRequest is the body of POST /v1/solve and one item of a
// BatchRequest. Graphs accept both JSON wire forms — an object
// {"n":…,"edges":[[u,v],…]} or a DIMACS document as a JSON string — or
// may be replaced by a GraphRef naming a graph interned via POST
// /v1/graphs.
type SolveRequest = service.SolveRequest

// SolveResponse is the body of a /v1/solve response and one NDJSON line
// of a /v1/batch stream: span, labeling, and the method/plan/cache
// provenance.
type SolveResponse = service.SolveResponse

// SolveOptionsWire is the JSON form of Options accepted by the service.
type SolveOptionsWire = service.WireOptions

// BatchRequest is the body of POST /v1/batch; results stream back as
// NDJSON in completion order.
type BatchRequest = service.BatchRequest

// GraphsResponse is the body of a POST /v1/graphs response: the graphRef
// to use in later solves, plus the interned instance's size.
type GraphsResponse = service.GraphsResponse

// StatsResponse is the body of GET /v1/stats: queue occupancy, admission
// counters, cache hit rate, intern-store counters, and per-method solve
// counts.
type StatsResponse = service.StatsResponse

// NewServeHandler returns the lplserve HTTP handler (the /v1/solve,
// /v1/batch, /v1/stats, and /healthz endpoints) backed by the solver
// pipeline and a memoization cache of its own (ServeConfig.Cache, or a
// new default-sized one). cfg may be nil for defaults. Mount it on any
// server or run cmd/lplserve.
func NewServeHandler(cfg *ServeConfig) http.Handler { return service.NewServer(cfg) }

// Solve computes an L(p)-labeling of g through the planned pipeline: the
// instance is routed to the cheapest applicable method (see the package
// comment) and always gets a labeling — disconnected graphs are solved
// per component, and instances outside every exact method's hypotheses
// fall back to approximations with recorded provenance. With nil options
// the planner runs free with verification on; when an exact method
// applies the result's Span equals λ_p(g) and Result.Exact is set.
func Solve(g *Graph, p Vector, opts *Options) (*Result, error) {
	return SolveContext(context.Background(), g, p, opts)
}

// SolveContext is Solve under a context: cancellation and Options.Deadline
// propagate into the TSP engine's cooperative checkpoints, and anytime
// engines return their incumbent labeling (Result.Truncated) when the
// deadline fires.
func SolveContext(ctx context.Context, g *Graph, p Vector, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{Verify: true}
	}
	return core.SolveContext(ctx, g, p, opts)
}

// Portfolio races exact and heuristic TSP engines concurrently over one
// shared reduction and returns the best labeling found, always verified.
// With no explicit engines a size-appropriate roster is used. The race
// ends when an exact engine finishes (its result is optimal) or when ctx
// expires (the best anytime incumbent wins).
func Portfolio(ctx context.Context, g *Graph, p Vector, engines ...Algorithm) (*Result, error) {
	return core.Portfolio(ctx, g, p, engines...)
}

// BatchItem is one instance of a SolveBatch: a graph, its constraint
// vector, and an identifier echoed back on the result stream.
type BatchItem = core.BatchItem

// BatchResult is one element of the SolveBatch result stream.
type BatchResult = core.BatchResult

// BatchOptions configures SolveBatch (worker-pool size and per-item solve
// options).
type BatchOptions = core.BatchOptions

// SolveBatch solves many labeling instances through a bounded worker pool
// and streams results on the returned channel as they complete; see
// core.SolveBatch for the cancellation contract. As with Solve, omitted
// solve options default to the exact engine with verification on.
func SolveBatch(ctx context.Context, items []BatchItem, opts *BatchOptions) <-chan BatchResult {
	var o BatchOptions
	if opts != nil {
		o = *opts
	}
	if o.Options == nil {
		o.Options = &Options{Verify: true}
	}
	return core.SolveBatch(ctx, items, &o)
}

// Lambda returns λ_p(g), the minimum span, computed exactly (Corollary 1).
func Lambda(g *Graph, p Vector) (int, error) { return core.Lambda(g, p) }

// Approximate returns a labeling with span at most 1.5·λ_p(g) in
// polynomial time (Corollary 1, Christofides/Hoogeveen pipeline).
func Approximate(g *Graph, p Vector) (*Result, error) { return core.Approximate(g, p) }

// Heuristic runs the chained local-search engine (pass nil for defaults).
func Heuristic(g *Graph, p Vector, opts *ChainedOptions) (*Result, error) {
	return core.Heuristic(g, p, opts)
}

// Verify checks that l is a valid L(p)-labeling of g.
func Verify(g *Graph, p Vector, l Labeling) error { return labeling.Verify(g, p, l) }

// BruteForceExact computes λ_p(g) by ordering enumeration, independent of
// the reduction and of its preconditions (n ≤ 11). Intended for
// cross-validation.
func BruteForceExact(g *Graph, p Vector) (Labeling, int, error) {
	return labeling.BruteForceExact(g, p)
}

// GreedyFirstFit is the classical first-fit baseline in decreasing-degree
// order. Valid on any graph and p.
func GreedyFirstFit(g *Graph, p Vector) (Labeling, int, error) {
	return labeling.GreedyFirstFit(g, p, labeling.OrderDegree)
}

// TreeLambda21 solves L(2,1)-LABELING exactly on trees — the
// class-specific polynomial algorithm the paper contrasts with the
// diameter-gated TSP route. It decides Δ+1 against Δ+2 (Chang–Kuo) with a
// bottom-up DP: for each vertex v and label b it runs one matching of v's
// children into the labels at least 2 away from b, and one
// alternating-path sweep finds every parent label a the children can do
// without (a is free in the matching, or an alternating path from a free
// label reaches it). The answers fill one flat table of ⌈(span+1)/64⌉-word
// bitsets; vertices whose subtree accepts every label pair, leaves among
// them, store no row. Cost: span+1 matchings per vertex with a row, then
// one matching per vertex to rebuild the labeling. Errors if g is not a
// tree.
func TreeLambda21(g *Graph) (Labeling, int, error) { return labeling.TreeLambda21(g) }

// Diameter2Result is the Corollary 2 outcome; see SolveDiameter2.
type Diameter2Result = core.Diameter2Result

// SolveDiameter2 solves L(p,q)-LABELING on a diameter-≤2 graph via the
// PARTITION INTO PATHS equivalence (Corollary 2). The span is exact when
// the greedy path cover meets the matching bound on the path count, for
// n ≤ 22 (subset DP), and when the partitioned graph is a cograph
// (cotree); otherwise it is the greedy cover's upper bound.
func SolveDiameter2(g *Graph, p, q int) (*Diameter2Result, error) {
	return core.SolveDiameter2(g, p, q)
}

// LambdaCograph computes λ_{p,q} exactly for a connected cograph of any
// size via the cotree path-cover recurrence (connected cographs have
// diameter ≤ 2, so Corollary 2 applies; no 2ⁿ machinery needed).
func LambdaCograph(g *Graph, p, q int) (int, error) { return core.LambdaCograph(g, p, q) }

// L1Exact computes λ for p = (1,…,1) of dimension k exactly, FPT in the
// neighborhood diversity of gᵏ (Theorem 4). No diameter condition.
func L1Exact(g *Graph, k int) (Labeling, int, error) { return core.L1Exact(g, k) }

// PmaxApprox returns a pmax-approximate labeling for any p on any graph,
// FPT in modular-width (Corollary 3).
func PmaxApprox(g *Graph, p Vector) (Labeling, int, error) { return core.PmaxApprox(g, p) }

// NeighborhoodDiversity returns nd(g).
func NeighborhoodDiversity(g *Graph) int {
	nd, _ := modular.ND(g)
	return nd
}

// ModularWidth returns mw(g) from the modular decomposition tree.
func ModularWidth(g *Graph) int { return modular.Width(g) }

// ReadGraph parses a graph in DIMACS edge format or a bare edge list.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes a graph in DIMACS edge format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// Graph ingestion errors (test with errors.Is): malformed edges in any
// wire form — JSON object, DIMACS text, or the binary frame — are typed,
// so embedders can map them to client-error responses the way lplserve
// maps them to 400.
var (
	// ErrGraphSelfLoop reports an edge {v,v}.
	ErrGraphSelfLoop = graph.ErrSelfLoop
	// ErrGraphEdgeRange reports an edge endpoint outside [0, n).
	ErrGraphEdgeRange = graph.ErrEdgeRange
	// ErrGraphVertexCount reports a negative or absurdly large vertex
	// count (the wire limit guards decode-time allocation).
	ErrGraphVertexCount = graph.ErrVertexCount
	// ErrGraphBinaryFormat reports a malformed binary graph frame.
	ErrGraphBinaryFormat = graph.ErrBinaryFormat
)

// GraphBinaryContentType is the HTTP Content-Type of the binary graph
// wire form, accepted by POST /v1/solve and POST /v1/graphs.
const GraphBinaryContentType = graph.BinaryContentType

// AppendGraphBinary appends g's length-prefixed binary wire frame
// ("LPG1" magic, uvarint-delta-coded canonical edge list) to dst and
// returns the extended slice. The encoding is canonical: equal graphs
// produce equal frames.
func AppendGraphBinary(dst []byte, g *Graph) []byte { return graph.AppendBinary(dst, g) }

// EncodeGraphBinary writes g's binary wire frame to w.
func EncodeGraphBinary(w io.Writer, g *Graph) error { return graph.EncodeBinary(w, g) }

// DecodeGraphBinary decodes one binary frame from the front of data,
// returning the graph and the bytes remaining after the frame (the
// frame is self-delimiting, so callers can append their own envelope —
// /v1/solve frames a JSON envelope behind the graph this way).
func DecodeGraphBinary(data []byte) (*Graph, []byte, error) { return graph.DecodeBinary(data) }
