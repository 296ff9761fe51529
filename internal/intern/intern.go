// Package intern holds the graph intern store behind lplserve's
// /v1/graphs endpoint: a bounded, sharded LRU keyed by the graph's
// 128-bit structural fingerprint. A client submits a graph once, gets
// its ref back, and every later /v1/solve or /v1/batch request that
// names the ref skips body parsing, graph construction, and fingerprint
// hashing entirely — the stored *graph.Graph is handed out as-is.
//
// That hand-out is safe because Put normalizes the graph and forces its
// derived views (CSR layout, fingerprint memo) before the graph becomes
// visible to any other goroutine: from then on every operation a solve
// performs on it is a pure read, so one interned graph can back any
// number of concurrent solves without copying. Callers must not mutate
// a graph obtained from Get.
//
// The shard geometry matches the solve cache in internal/core: 2^4
// independently locked LRU shards with per-shard quotas, collapsing to
// one shard for budgets smaller than the shard count, and stats that
// lock all shards before reading any counter so snapshots are
// internally consistent.
package intern

import (
	"container/list"
	"strconv"
	"sync"

	"lpltsp/internal/graph"
)

// DefaultCapacity is the default entry budget of a store. An entry is
// one normalized graph (O(n+m) int32s), so the footprint is linear in
// the interned instances' sizes.
const DefaultCapacity = 1024

const (
	shardBits  = 4
	shardCount = 1 << shardBits
)

// Store is a bounded, sharded LRU of interned graphs keyed by
// fingerprint ref. The zero value is not usable; call NewStore.
type Store struct {
	shards []*shard
	mask   uint64
	cap    int
}

type shard struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	entries map[string]*list.Element

	puts, dups, hits, misses, evictions int64
}

type entry struct {
	ref string
	g   *graph.Graph
}

// NewStore returns a store with the given total entry budget, divided
// across the LRU shards (per-shard eviction keeps the total within
// capacity). Capacity ≤ 0 disables interning: Put still returns refs
// (the fingerprint is a pure function of the graph) but nothing is
// retained, so every Get misses.
func NewStore(capacity int) *Store {
	shards := shardCount
	if capacity < shardCount {
		shards = 1
	}
	s := &Store{shards: make([]*shard, shards), mask: uint64(shards - 1), cap: capacity}
	base, rem := 0, 0
	if capacity > 0 {
		base, rem = capacity/shards, capacity%shards
	}
	for i := range s.shards {
		sc := base
		if i < rem {
			sc++
		}
		s.shards[i] = &shard{cap: sc, ll: list.New(), entries: map[string]*list.Element{}}
	}
	return s
}

// Ref is the wire form of a graph's identity: the 128-bit structural
// fingerprint as 32 lowercase hex digits. Equal graphs (same n, same
// normalized adjacency) always produce the same ref.
func Ref(g *graph.Graph) string {
	h1, h2 := g.Fingerprint()
	var b [32]byte
	hex16(b[:16], h1)
	hex16(b[16:], h2)
	return string(b[:])
}

func hex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// ValidRef reports whether ref has the shape Put returns: exactly 32
// lowercase hex digits. Malformed refs can be rejected as bad requests
// before touching the store.
func ValidRef(ref string) bool {
	if len(ref) != 32 {
		return false
	}
	for i := 0; i < len(ref); i++ {
		c := ref[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func fnvKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

func (s *Store) shard(ref string) *shard {
	return s.shards[fnvKey(ref)&s.mask]
}

// Put interns g and returns its ref, and whether an equal graph was
// already interned, decided under the ref's shard lock. The graph is
// normalized and its CSR view and fingerprint are forced here, before
// publication, so readers obtained via Get never race a lazy build. Put
// is idempotent: re-interning an equal graph returns the same ref,
// refreshes its LRU position, and keeps the first stored copy.
func (s *Store) Put(g *graph.Graph) (ref string, reinterned bool) {
	g.Normalize()
	_ = g.MaxDegree() // force the lazy CSR view pre-publication
	ref = Ref(g)      // forces the fingerprint memo
	sh := s.shard(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.puts++
	if el, ok := sh.entries[ref]; ok {
		sh.dups++
		sh.ll.MoveToFront(el)
		return ref, true
	}
	if sh.cap <= 0 {
		return ref, false
	}
	sh.entries[ref] = sh.ll.PushFront(&entry{ref: ref, g: g})
	for sh.ll.Len() > sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.entries, back.Value.(*entry).ref)
		sh.evictions++
	}
	return ref, false
}

// Get returns the interned graph for ref, or (nil, false) if it was
// never interned or has been evicted. The returned graph is shared and
// must be treated as read-only.
func (s *Store) Get(ref string) (*graph.Graph, bool) {
	sh := s.shard(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[ref]
	if !ok {
		sh.misses++
		return nil, false
	}
	sh.hits++
	sh.ll.MoveToFront(el)
	return el.Value.(*entry).g, true
}

// Len returns the current number of interned graphs.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats is a consistent snapshot of a store's counters. Puts counts
// every Put call; Reinterned is the subset that found the graph already
// present. Hits/Misses count Get outcomes.
type Stats struct {
	Entries    int64 `json:"entries"`
	Capacity   int64 `json:"capacity"`
	Puts       int64 `json:"puts"`
	Reinterned int64 `json:"reinterned"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
}

// Stats locks every shard before reading any counter, so the snapshot
// can never mix counts from different moments.
func (s *Store) Stats() Stats {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	st := Stats{Capacity: int64(s.cap)}
	for _, sh := range s.shards {
		st.Entries += int64(sh.ll.Len())
		st.Puts += sh.puts
		st.Reinterned += sh.dups
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	return st
}

// String renders a ref-like debug identity for error messages.
func (st Stats) String() string {
	return "intern{entries=" + strconv.FormatInt(st.Entries, 10) +
		"/" + strconv.FormatInt(st.Capacity, 10) +
		" hits=" + strconv.FormatInt(st.Hits, 10) +
		" misses=" + strconv.FormatInt(st.Misses, 10) +
		" evictions=" + strconv.FormatInt(st.Evictions, 10) + "}"
}
