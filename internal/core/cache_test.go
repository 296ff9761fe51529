package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
)

// TestCacheHitRoundtrip: a repeated verified solve is served from the
// cache, bit-identical, with counters advancing.
func TestCacheHitRoundtrip(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()
	r := rng.New(11)
	g := graph.RandomSmallDiameter(r, 13, 3, 0.3)
	p := labeling.Vector{2, 2, 1}
	opts := &Options{Verify: true}
	first, err := Solve(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	second, err := Solve(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second solve missed the cache")
	}
	if second.Span != first.Span || second.Method != first.Method || second.Exact != first.Exact {
		t.Fatalf("cache changed provenance: %+v vs %+v", second, first)
	}
	for v := range first.Labeling {
		if first.Labeling[v] != second.Labeling[v] {
			t.Fatalf("label %d differs", v)
		}
	}
	st := SolveCacheStats()
	if st.Hits != 1 || st.Entries == 0 {
		t.Fatalf("counters: %+v", st)
	}
	// A structurally identical graph built in a different edge order
	// shares the fingerprint and hits too.
	h := graph.New(g.N())
	es := g.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		h.AddEdge(es[i][1], es[i][0])
	}
	third, err := Solve(h, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Fatal("isomorphic-by-identity graph missed the cache")
	}
}

// TestCacheIsolation: mutations of a returned result never leak into the
// cache, and distinct options key distinct entries.
func TestCacheIsolation(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	g := graph.Complete(6)
	p := labeling.L21()
	first, err := Solve(g, p, &Options{Verify: true, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	want := append(labeling.Labeling(nil), first.Labeling...)
	for v := range first.Labeling {
		first.Labeling[v] = -999 // caller vandalism
	}
	second, err := Solve(g, p, &Options{Verify: true, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("expected a hit")
	}
	for v := range want {
		if second.Labeling[v] != want[v] {
			t.Fatal("caller mutation leaked into the cache")
		}
	}
	// Different pinned method ⇒ different key ⇒ no stale answer.
	forced, err := Solve(g, p, &Options{Method: MethodGreedy, Verify: true, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if forced.CacheHit || forced.Method != MethodGreedy {
		t.Fatalf("forced-method solve reused the auto entry: %+v", forced)
	}
}

// TestCacheDeterminismUnderRace hammers the cache from concurrent batch
// workers over duplicated instances: every duplicate must report the same
// span (run under -race, this also proves hits share no mutable state).
func TestCacheDeterminismUnderRace(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	r := rng.New(17)
	base := make([]*graph.Graph, 4)
	for i := range base {
		base[i] = graph.RandomSmallDiameter(r, 11+i, 3, 0.3)
	}
	p := labeling.Vector{2, 2, 1}
	const dup = 8
	var items []BatchItem
	for rep := 0; rep < dup; rep++ {
		for i, g := range base {
			items = append(items, BatchItem{ID: string(rune('a' + i)), G: g, P: p})
		}
	}
	spans := map[string]map[int]bool{}
	var mu sync.Mutex
	for br := range SolveBatch(context.Background(), items, &BatchOptions{Workers: 4, Options: &Options{Verify: true, Cache: c}}) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		mu.Lock()
		if spans[br.ID] == nil {
			spans[br.ID] = map[int]bool{}
		}
		spans[br.ID][br.Result.Span] = true
		mu.Unlock()
	}
	for id, set := range spans {
		if len(set) != 1 {
			t.Fatalf("instance %s produced %d distinct spans under caching", id, len(set))
		}
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatalf("duplicated batch produced no cache hits: %+v", st)
	}
}

// TestCacheCapacityAndEviction: the LRU respects its budget and capacity
// zero disables caching.
func TestCacheCapacityAndEviction(t *testing.T) {
	c := NewSolveCache(2)
	opts := &Options{Verify: true, Cache: c}
	p := labeling.L21()
	gs := []*graph.Graph{graph.Complete(4), graph.Complete(5), graph.Complete(6)}
	for _, g := range gs {
		if _, err := Solve(g, p, opts); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("capacity 2: %+v", st)
	}
	// K4 (the LRU victim) misses; K6 (most recent) hits.
	res, err := Solve(gs[0], p, opts)
	if err != nil || res.CacheHit {
		t.Fatalf("evicted entry served: hit=%v err=%v", res != nil && res.CacheHit, err)
	}
	res, err = Solve(gs[2], p, opts)
	if err != nil || !res.CacheHit {
		t.Fatalf("fresh entry missed: err=%v", err)
	}
	c.SetCapacity(0)
	if _, err := Solve(graph.Complete(7), p, opts); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("capacity 0 cached anyway: %+v", st)
	}
}

// modelLRU is the reference single-list LRU the shards are checked
// against: plain slice, front = most recent.
type modelLRU struct {
	cap       int
	keys      []string
	evictions int64
	hits      int64
	misses    int64
}

func (m *modelLRU) get(key string) bool {
	for i, k := range m.keys {
		if k == key {
			m.keys = append(append([]string{key}, m.keys[:i]...), m.keys[i+1:]...)
			m.hits++
			return true
		}
	}
	m.misses++
	return false
}

func (m *modelLRU) put(key string) {
	if m.cap <= 0 {
		return
	}
	for i, k := range m.keys {
		if k == key {
			m.keys = append(append([]string{key}, m.keys[:i]...), m.keys[i+1:]...)
			return
		}
	}
	m.keys = append([]string{key}, m.keys...)
	for len(m.keys) > m.cap {
		m.keys = m.keys[:len(m.keys)-1]
		m.evictions++
	}
}

// TestShardedCacheMatchesModelLRU drives the sharded cache and a
// per-shard model LRU through one long randomized op sequence and
// requires them to agree exactly: same hits, misses, evictions, and the
// same resident key set in the same recency order per shard. This pins
// shard-eviction correctness — each shard must be a textbook LRU of its
// quota, with keys routed by the stable shard hash.
func TestShardedCacheMatchesModelLRU(t *testing.T) {
	const capacity = 64 // 16 shards × 4 entries
	c := NewSolveCache(capacity)
	gen := c.gen.Load()
	if len(gen.shards) != cacheShardCount {
		t.Fatalf("capacity %d built %d shards, want %d", capacity, len(gen.shards), cacheShardCount)
	}
	models := make([]*modelLRU, len(gen.shards))
	var totalCap int
	for i := range models {
		models[i] = &modelLRU{cap: gen.shards[i].cap}
		totalCap += gen.shards[i].cap
	}
	if totalCap != capacity {
		t.Fatalf("shard quotas sum to %d, want %d", totalCap, capacity)
	}

	mkRes := func(span int) *Result {
		return &Result{Span: span, Labeling: labeling.Labeling{span}, Method: MethodGreedy}
	}
	r := rng.New(5005)
	const keys = 160 // 2.5× capacity so evictions are constant
	for op := 0; op < 20000; op++ {
		key := fmt.Sprintf("key-%d", r.Intn(keys))
		model := models[fnvKey(key)&gen.mask]
		if r.Intn(2) == 0 {
			res, ok := c.get(key)
			if mok := model.get(key); ok != mok {
				t.Fatalf("op %d: get(%s) = %v, model says %v", op, key, ok, mok)
			}
			if ok && (!res.CacheHit || fmt.Sprintf("key-%d", res.Span) != key) {
				t.Fatalf("op %d: hit returned wrong entry %+v for %s", op, res, key)
			}
		} else {
			var span int
			fmt.Sscanf(key, "key-%d", &span)
			c.put(key, mkRes(span))
			model.put(key)
		}
	}

	st := c.stats()
	var mh, mm, me, ment int64
	for _, m := range models {
		mh += m.hits
		mm += m.misses
		me += m.evictions
		ment += int64(len(m.keys))
	}
	if st.Hits != mh || st.Misses != mm || st.Evictions != me || st.Entries != ment {
		t.Fatalf("counters diverge: cache %+v, model hits=%d misses=%d evictions=%d entries=%d",
			st, mh, mm, me, ment)
	}
	// Resident sets match per shard, in exact recency order.
	for i, sh := range gen.shards {
		sh.mu.Lock()
		var got []string
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			got = append(got, el.Value.(*cacheEntry).key)
		}
		sh.mu.Unlock()
		want := models[i].keys
		if len(got) != len(want) {
			t.Fatalf("shard %d holds %d entries, model %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("shard %d recency order diverges at %d: %v vs %v", i, j, got, want)
			}
		}
	}
}

// TestCacheStatsConsistentSnapshot hammers the sharded cache from many
// goroutines and requires exact reconciliation: every get is counted
// exactly once as a hit or a miss (no lost updates, no double counts),
// and entries + evictions account for every distinct inserted key.
// Run under -race in CI.
func TestCacheStatsConsistentSnapshot(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	const (
		workers = 8
		opsEach = 4000
		keys    = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("k%d", r.Intn(keys))
				if _, ok := c.get(key); !ok {
					c.put(key, &Result{Span: 1, Labeling: labeling.Labeling{1}, Method: MethodGreedy})
				}
				if i%512 == 0 {
					// Concurrent snapshots must always be internally sane.
					st := c.stats()
					if st.Entries < 0 || st.Entries > DefaultCacheCapacity || st.Hits < 0 || st.Misses < 0 {
						t.Errorf("insane snapshot %+v", st)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := c.stats()
	if st.Hits+st.Misses != workers*opsEach {
		t.Fatalf("lost lookups: hits %d + misses %d != %d ops (%+v)",
			st.Hits, st.Misses, workers*opsEach, st)
	}
	// keys < capacity, so nothing was ever evicted and every distinct key
	// is resident: misses == puts == entries.
	if st.Evictions != 0 || st.Entries != keys || st.Misses < int64(keys) {
		t.Fatalf("occupancy does not reconcile: %+v (want entries=%d, evictions=0)", st, keys)
	}
}
