package intern

import (
	"fmt"
	"sync"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore(8)
	g := graph.Cycle(5)
	ref, reinterned := s.Put(g)
	if !ValidRef(ref) {
		t.Fatalf("Put returned malformed ref %q", ref)
	}
	if reinterned {
		t.Fatal("a fresh graph reported as re-interned")
	}
	got, ok := s.Get(ref)
	if !ok {
		t.Fatal("interned graph not found")
	}
	if got != g {
		t.Fatal("Get must return the stored graph, not a copy")
	}
	if _, ok := s.Get("00000000000000000000000000000000"); ok {
		t.Fatal("unknown ref resolved")
	}
}

func TestPutIdempotent(t *testing.T) {
	s := NewStore(8)
	ref1, re1 := s.Put(graph.Cycle(6))
	ref2, re2 := s.Put(graph.Cycle(6)) // equal graph, distinct object
	if ref1 != ref2 {
		t.Fatalf("equal graphs got different refs: %s vs %s", ref1, ref2)
	}
	if re1 || !re2 {
		t.Fatalf("reinterned %v then %v, want false then true", re1, re2)
	}
	if s.Len() != 1 {
		t.Fatalf("re-intern grew the store to %d entries", s.Len())
	}
	st := s.Stats()
	if st.Puts != 2 || st.Reinterned != 1 {
		t.Fatalf("puts=%d reinterned=%d, want 2/1", st.Puts, st.Reinterned)
	}
}

func TestRefIsStructural(t *testing.T) {
	// Same structure built in different edge orders → same ref.
	a := graph.New(4)
	a.AddEdge(0, 1)
	a.AddEdge(2, 3)
	b := graph.New(4)
	b.AddEdge(3, 2)
	b.AddEdge(1, 0)
	if Ref(a) != Ref(b) {
		t.Fatal("edge order changed the ref")
	}
	if Ref(graph.Path(4)) == Ref(graph.Cycle(4)) {
		t.Fatal("distinct graphs share a ref")
	}
}

func TestEvictionLRU(t *testing.T) {
	// Capacity below the shard count collapses to one shard, giving exact
	// classic LRU semantics to pin.
	s := NewStore(3)
	r := rng.New(1)
	refs := make([]string, 5)
	for i := range refs {
		refs[i], _ = s.Put(graph.RandomSmallDiameter(r, 10+i, 3, 0.2))
	}
	if s.Len() != 3 {
		t.Fatalf("len=%d, want capacity 3", s.Len())
	}
	if _, ok := s.Get(refs[0]); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	if _, ok := s.Get(refs[4]); !ok {
		t.Fatal("newest entry evicted")
	}
	// Touch refs[2], then push one more: refs[3] should fall, not refs[2].
	if _, ok := s.Get(refs[2]); !ok {
		t.Fatal("refs[2] missing before touch test")
	}
	s.Put(graph.RandomSmallDiameter(r, 40, 3, 0.2))
	if _, ok := s.Get(refs[2]); !ok {
		t.Fatal("recently touched entry evicted")
	}
	if _, ok := s.Get(refs[3]); ok {
		t.Fatal("LRU order ignored the Get touch")
	}
	if ev := s.Stats().Evictions; ev != 3 {
		t.Fatalf("evictions=%d, want 3", ev)
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	s := NewStore(0)
	ref, _ := s.Put(graph.Cycle(4))
	if !ValidRef(ref) {
		t.Fatal("disabled store must still return valid refs")
	}
	if _, reinterned := s.Put(graph.Cycle(4)); reinterned {
		t.Fatal("a disabled store reported an equal graph as re-interned")
	}
	if _, ok := s.Get(ref); ok {
		t.Fatal("disabled store retained a graph")
	}
	if s.Len() != 0 {
		t.Fatal("disabled store has entries")
	}
}

func TestShardedCapacityBound(t *testing.T) {
	const capacity = 64
	s := NewStore(capacity)
	r := rng.New(3)
	for i := 0; i < 4*capacity; i++ {
		s.Put(graph.RandomSmallDiameter(r, 8+i%50, 3, 0.3))
	}
	if n := s.Len(); n > capacity {
		t.Fatalf("store holds %d entries, budget is %d", n, capacity)
	}
	st := s.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("stats entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
}

func TestValidRef(t *testing.T) {
	good := Ref(graph.Cycle(3))
	if !ValidRef(good) {
		t.Fatalf("real ref %q rejected", good)
	}
	for _, bad := range []string{
		"", "xyz", good[:31], good + "0",
		"ABCDEF00112233445566778899AABBCC", // uppercase
		"0123456789abcdef0123456789abcdeg", // non-hex
	} {
		if ValidRef(bad) {
			t.Errorf("ValidRef(%q) = true", bad)
		}
	}
}

// TestStoreConcurrentPutGet is pinned in CI's -race step: interleaved
// Put/Get/Stats across goroutines must be race-clean, and graphs read
// through Get must be safely usable (fingerprint, CSR traversal)
// without synchronization.
func TestStoreConcurrentPutGet(t *testing.T) {
	s := NewStore(32)
	var wg sync.WaitGroup
	refs := make([]string, 16)
	for i := range refs {
		refs[i], _ = s.Put(graph.RandomSmallDiameter(rng.New(uint64(i+1)), 20+i, 3, 0.2))
	}
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					s.Put(graph.RandomSmallDiameter(r, 10+i%30, 3, 0.2))
				case 1:
					if g, ok := s.Get(refs[i%len(refs)]); ok {
						// Exercise the shared read-only surface.
						_, _ = g.Fingerprint()
						_ = g.MaxDegree()
						if g.N() > 1 {
							_ = g.Neighbors(0)
						}
					}
				case 2:
					_ = s.Stats()
				default:
					_ = s.Len()
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d after concurrent churn", st.Entries, st.Capacity)
	}
}

// TestStoreConcurrentSameGraph is pinned in CI's -race step: many
// goroutines interning equal graphs must agree on one ref with no race
// on the lazy derived views.
func TestStoreConcurrentSameGraph(t *testing.T) {
	s := NewStore(8)
	var wg sync.WaitGroup
	out := make([]string, 16)
	for i := range out {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], _ = s.Put(graph.Complete(7))
		}()
	}
	wg.Wait()
	for _, ref := range out[1:] {
		if ref != out[0] {
			t.Fatalf("refs diverged: %v", out)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("len=%d after interning one structure", s.Len())
	}
}

func TestStatsSnapshotConsistent(t *testing.T) {
	s := NewStore(4)
	ref, _ := s.Put(graph.Path(3))
	s.Get(ref)
	s.Get("ffffffffffffffffffffffffffffffff")
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func BenchmarkStorePut(b *testing.B) {
	s := NewStore(DefaultCapacity)
	gs := make([]*graph.Graph, 64)
	r := rng.New(9)
	for i := range gs {
		gs[i] = graph.RandomSmallDiameter(r, 64, 3, 0.1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(gs[i%len(gs)])
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore(DefaultCapacity)
	refs := make([]string, 64)
	r := rng.New(9)
	for i := range refs {
		refs[i], _ = s.Put(graph.RandomSmallDiameter(r, 64, 3, 0.1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(refs[i%len(refs)]); !ok {
			b.Fatal("miss")
		}
	}
}

func ExampleStore() {
	s := NewStore(16)
	ref, _ := s.Put(graph.Cycle(4))
	g, ok := s.Get(ref)
	fmt.Println(ok, g.N(), g.M())
	// Output: true 4 4
}
