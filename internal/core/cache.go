package core

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/tsp"
)

// DefaultCacheCapacity is the solve cache's default entry budget. An
// entry holds one Result (labeling + tour + provenance, O(n) ints) — not
// the distance matrix — so the cache's footprint stays linear in the
// cached instances' sizes.
const DefaultCacheCapacity = 512

// Shard geometry: 2^cacheShardBits independently locked LRU shards, so
// concurrent requests serialize only against requests whose keys hash to
// the same shard, not against the whole serving tier. Budgets smaller
// than the shard count collapse to one shard — per-shard quotas of a
// tiny budget would round to nothing meaningful, and the single-shard
// cache preserves the exact classic LRU semantics the capacity tests pin.
const (
	cacheShardBits  = 4
	cacheShardCount = 1 << cacheShardBits
)

// SolveCache is a sharded LRU memoizing verified solve results, fronted
// by a singleflight layer (singleflight.go) that coalesces concurrent
// identical requests into one underlying solve, and optionally backed by
// a pluggable L2 cache (l2.go) consulted on L1 miss before solving.
//
// A SolveCache is also the home of the per-server solver state around
// those flights: the stuck-solve watchdog that guards them (watchdog.go)
// and the contained-panic counts of the solves run through it
// (guard.go). The library's default instance serves every Solve/
// SolveBatch/Portfolio call whose Options carry no explicit cache; an
// isolated instance (NewSolveCache, Options.Cache) gives one serving
// node its own L1, singleflight, watchdog and panic counts — every
// service.Server builds one unless handed one, so several servers in one
// process share none of them.
//
// Memory model: entries are stored as deep copies (labeling and tour
// slices cloned) and handed out as deep copies, so a cached Result never
// shares mutable state with any caller — hits are safe under concurrent
// SolveBatch workers and -race. A stored Result is immutable from the
// moment it enters a shard (put replaces the entry's pointer, never
// mutates it), which is what lets get() take its deep copy outside the
// shard lock: the critical section is a map lookup plus an LRU pointer
// move. The immutable provenance (Plan, Stats) is shared between copies
// by design.
type SolveCache struct {
	// gen is the current shard generation; reset and capacity changes
	// swap in a fresh one atomically instead of locking readers out.
	gen       atomic.Pointer[cacheGen]
	resetMu   sync.Mutex
	flights   flightTable
	coalesced atomic.Int64

	// l2 is the optional second cache tier (SetL2); flight leaders
	// consult it on L1 miss before solving locally. The counters below
	// classify those consults for CacheStats.
	l2          atomic.Pointer[l2Box]
	l2Served    atomic.Int64
	l2PeerHits  atomic.Int64
	l2Fallbacks atomic.Int64

	watchdog watchdog
	panicMu  sync.Mutex
	panics   map[MethodName]int64 // contained panics per attributed method
}

// l2Box wraps the interface value so it can ride in an atomic.Pointer
// (interfaces are two words; pointers are one).
type l2Box struct{ l2 L2Cache }

type cacheGen struct {
	shards []*cacheShard
	mask   uint64
	cap    int // total entry budget across shards
}

// cacheShard is one independently locked LRU. The counters are plain
// ints mutated under mu, so a stats() sweep that takes the shard locks
// reads an internally consistent (hits, misses, evictions, entries)
// tuple — the atomic counters this replaces could be read mid-burst with
// hits and misses from different moments, skewing the derived hit rate.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	entries map[string]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key string
	res *Result
}

func newCacheGen(capacity int) *cacheGen {
	shards := cacheShardCount
	if capacity < cacheShardCount {
		shards = 1
	}
	g := &cacheGen{shards: make([]*cacheShard, shards), mask: uint64(shards - 1), cap: capacity}
	base, rem := capacity/shards, capacity%shards
	for i := range g.shards {
		sc := base
		if i < rem {
			sc++
		}
		g.shards[i] = &cacheShard{cap: sc, ll: list.New(), entries: map[string]*list.Element{}}
	}
	return g
}

// NewSolveCache returns an isolated cache + singleflight instance with
// the given total entry budget and a disarmed watchdog. Pass it via
// Options.Cache (or service.Config.Cache) to give one serving node its
// own state, independent of the library's default instance.
func NewSolveCache(capacity int) *SolveCache {
	c := &SolveCache{panics: map[MethodName]int64{}}
	c.gen.Store(newCacheGen(capacity))
	c.watchdog.wake = make(chan struct{}, 1)
	return c
}

// SetL2 installs (or, with nil, removes) the second cache tier behind
// this instance: on an L1 miss the leading flight consults l2 before
// solving locally, so a cluster of nodes can serve one hot instance from
// the single node that owns it. See the L2Cache contract in l2.go.
func (c *SolveCache) SetL2(l2 L2Cache) {
	if l2 == nil {
		c.l2.Store(nil)
		return
	}
	c.l2.Store(&l2Box{l2: l2})
}

func (c *SolveCache) loadL2() L2Cache {
	if b := c.l2.Load(); b != nil {
		return b.l2
	}
	return nil
}

// Stats returns a consistent snapshot of this instance's counters.
func (c *SolveCache) Stats() CacheStats { return c.stats() }

// Reset empties the cache and zeroes its counters, keeping the current
// capacity. The installed L2, if any, stays, and so do the watchdog and
// the kill and panic counts.
func (c *SolveCache) Reset() { c.resetKeepCap() }

// SetCapacity resets the cache with a new entry budget (≤ 0 disables
// caching on this instance).
func (c *SolveCache) SetCapacity(capacity int) { c.reset(capacity) }

var defaultSolveCache = NewSolveCache(DefaultCacheCapacity)

// cacheFor returns the cache a solve runs through: Options.Cache, or the
// library default.
func cacheFor(opts *Options) *SolveCache {
	if opts != nil && opts.Cache != nil {
		return opts.Cache
	}
	return defaultSolveCache
}

// fnvKey is the shard-selection hash: FNV-1a over the canonical cache
// key. Both the LRU shards and the singleflight table index with it.
func fnvKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

func (g *cacheGen) shard(key string) *cacheShard {
	return g.shards[fnvKey(key)&g.mask]
}

// copyResult clones the slices a caller could mutate; everything else is
// immutable after the solve.
func copyResult(r *Result) *Result {
	cp := *r
	if r.Labeling != nil {
		cp.Labeling = append(labeling.Labeling(nil), r.Labeling...)
	}
	if r.Tour != nil {
		cp.Tour = append(tsp.Tour(nil), r.Tour...)
	}
	return &cp
}

func (c *SolveCache) get(key string) (*Result, bool) {
	sh := c.gen.Load().shard(key)
	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.misses++
		sh.mu.Unlock()
		return nil, false
	}
	sh.ll.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	sh.hits++
	sh.mu.Unlock()
	// Deep copy outside the lock: stored results are immutable.
	cp := copyResult(res)
	cp.CacheHit = true
	cp.Coalesced = false
	return cp, true
}

// getRecounted is get for a caller that has already counted a miss for
// this key (the under-flight-lock re-lookup in solveCoalesced): a hit
// here converts that provisional miss into a hit, so every request still
// counts exactly one hit or miss; a second miss stays the single miss
// already recorded.
func (c *SolveCache) getRecounted(key string) (*Result, bool) {
	sh := c.gen.Load().shard(key)
	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	sh.ll.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	sh.hits++
	if sh.misses > 0 { // the provisional miss may predate a reset
		sh.misses--
	}
	sh.mu.Unlock()
	cp := copyResult(res)
	cp.CacheHit = true
	cp.Coalesced = false
	return cp, true
}

func (c *SolveCache) put(key string, res *Result) {
	sh := c.gen.Load().shard(key)
	if sh.cap <= 0 {
		return
	}
	stored := copyResult(res)
	stored.CacheHit = false
	stored.Coalesced = false
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		sh.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = stored
		return
	}
	sh.entries[key] = sh.ll.PushFront(&cacheEntry{key: key, res: stored})
	for sh.ll.Len() > sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.entries, back.Value.(*cacheEntry).key)
		sh.evictions++
	}
}

func (c *SolveCache) reset(capacity int) {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	c.gen.Store(newCacheGen(capacity))
	c.coalesced.Store(0)
	c.resetL2Counters()
}

func (c *SolveCache) resetL2Counters() {
	c.l2Served.Store(0)
	c.l2PeerHits.Store(0)
	c.l2Fallbacks.Store(0)
}

// resetKeepCap clears entries and counters at the current capacity,
// reading cap under resetMu (a bare reset(c.cap) would race a concurrent
// capacity change).
func (c *SolveCache) resetKeepCap() {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	c.gen.Store(newCacheGen(c.gen.Load().cap))
	c.coalesced.Store(0)
	c.resetL2Counters()
}

// stats locks every shard of the current generation before reading any
// counter, so the returned snapshot is consistent: the hit rate derived
// from it can never mix a hit count from one moment with a miss count
// from another. Shards are locked in index order (the only place more
// than one shard lock is ever held).
func (c *SolveCache) stats() CacheStats {
	g := c.gen.Load()
	for _, sh := range g.shards {
		sh.mu.Lock()
	}
	var st CacheStats
	for _, sh := range g.shards {
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += int64(sh.ll.Len())
	}
	for _, sh := range g.shards {
		sh.mu.Unlock()
	}
	st.Coalesced = c.coalesced.Load()
	st.L2Served = c.l2Served.Load()
	st.L2PeerHits = c.l2PeerHits.Load()
	st.L2Fallbacks = c.l2Fallbacks.Load()
	return st
}

// CacheStats is a consistent snapshot of the solve cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions, Entries int64
	// Coalesced counts requests served by joining an in-flight identical
	// solve (the singleflight layer) rather than by an LRU hit: the
	// request never reached a solver, so it is cache-tier work saved
	// before the first result even landed in the LRU.
	Coalesced int64
	// L2Served counts flights whose result came from the L2 tier (the
	// owning peer answered — from its own cache or by solving) instead of
	// a local solve; L2PeerHits is the subset the peer served from its L1
	// without solving. L2Fallbacks counts consults that errored — either
	// unhandled (the flight fell back to a local solve) or handled (the
	// L2 failed the flight outright). All zero when no L2 is installed.
	L2Served, L2PeerHits, L2Fallbacks int64
}

// SolveCacheStats returns the current counters of the library's default
// solve cache, consulted by every solve whose Options name no cache.
func SolveCacheStats() CacheStats { return defaultSolveCache.stats() }

// ResetSolveCache empties the default solve cache and zeroes its
// counters, keeping the current capacity. Intended for tests and
// benchmarks.
func ResetSolveCache() { defaultSolveCache.resetKeepCap() }

// cacheKeyFor builds the canonical instance fingerprint: the graph's
// 128-bit structural hash (plus n and m, so a hash collision must also
// collide on size to matter), the constraint vector, and every option
// that can change the produced result — forced method, pinned engine,
// portfolio roster, and chained-heuristic tuning. Deadlines are excluded:
// truncated results are never cached, and a completed solve does not
// depend on how much budget was left. Built with strconv appends into
// one buffer — this runs on every cacheable request, where the fmt-based
// builder it replaced was a measurable slice of the hit path.
func cacheKeyFor(g *graph.Graph, p labeling.Vector, opts *Options) string {
	h1, h2 := g.Fingerprint()
	b := make([]byte, 0, 128)
	b = strconv.AppendUint(b, h1, 16)
	b = append(b, '.')
	b = strconv.AppendUint(b, h2, 16)
	b = append(b, ":n"...)
	b = strconv.AppendInt(b, int64(g.N()), 10)
	b = append(b, ":m"...)
	b = strconv.AppendInt(b, int64(g.M()), 10)
	b = append(b, ":p"...)
	for _, x := range p {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(x), 10)
	}
	if opts != nil {
		if opts.Method != "" {
			b = append(b, ":M"...)
			b = append(b, opts.Method...)
		}
		if opts.Algorithm != "" {
			b = append(b, ":a"...)
			b = append(b, opts.Algorithm...)
		}
		for _, e := range opts.Engines {
			b = append(b, ":e"...)
			b = append(b, e...)
		}
		if opts.Chained != nil {
			b = append(b, ":c"...)
			b = strconv.AppendInt(b, int64(opts.Chained.Restarts), 10)
			b = append(b, '.')
			b = strconv.AppendInt(b, int64(opts.Chained.Kicks), 10)
			b = append(b, '.')
			b = strconv.AppendUint(b, opts.Chained.Seed, 10)
		}
	}
	return string(b)
}

// cacheable reports whether this solve participates in the cache: caching
// must be on (Options.NoCache unset) and the result verified
// (Options.Verify — only labelings that were re-checked against the
// definition are worth trusting across requests).
func cacheable(opts *Options) bool {
	return opts != nil && opts.Verify && !opts.NoCache
}
