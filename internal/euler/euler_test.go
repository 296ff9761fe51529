package euler

import (
	"slices"
	"testing"

	"lpltsp/internal/rng"
)

func checkWalk(t *testing.T, m *Multigraph, walk []int, start int, wantEdges int) {
	t.Helper()
	if walk[0] != start {
		t.Fatalf("walk starts at %d, want %d", walk[0], start)
	}
	if len(walk) != wantEdges+1 {
		t.Fatalf("walk length %d, want %d edges", len(walk)-1, wantEdges)
	}
}

// TestTrailThroughTriangle: from the pendant vertex 3 the trail must
// splice the triangle 0-1-2 in before it ends at 0.
func TestTrailThroughTriangle(t *testing.T) {
	m := NewMultigraph(4)
	m.AddEdge(0, 1)
	m.AddEdge(1, 2)
	m.AddEdge(2, 0)
	m.AddEdge(0, 3)
	walk, err := m.Trail(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkWalk(t, m, walk, 3, 4)
	if walk[len(walk)-1] != 0 {
		t.Fatalf("trail ends at %d, want 0", walk[len(walk)-1])
	}
}

func TestTrailWithParallelEdges(t *testing.T) {
	m := NewMultigraph(2)
	m.AddEdge(0, 1)
	m.AddEdge(0, 1) // parallel
	m.AddEdge(0, 1) // parallel
	walk, err := m.Trail(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkWalk(t, m, walk, 0, 3)
	if want := []int{0, 1, 0, 1}; !slices.Equal(walk, want) {
		t.Fatalf("walk %v, want %v", walk, want)
	}
}

func TestTrailDisconnectedFails(t *testing.T) {
	m := NewMultigraph(5)
	m.AddEdge(0, 1)
	m.AddEdge(2, 3)
	m.AddEdge(3, 4)
	m.AddEdge(4, 2)
	if _, err := m.Trail(0, 1); err == nil {
		t.Fatal("disconnected edge set must fail")
	}
}

func TestTrail(t *testing.T) {
	// Path 0-1-2-3: trail from 0 to 3.
	m := NewMultigraph(4)
	m.AddEdge(0, 1)
	m.AddEdge(1, 2)
	m.AddEdge(2, 3)
	walk, err := m.Trail(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkWalk(t, m, walk, 0, 3)
	if walk[len(walk)-1] != 3 {
		t.Fatalf("trail ends at %d, want 3", walk[len(walk)-1])
	}
}

func TestTrailParityChecks(t *testing.T) {
	m := NewMultigraph(3)
	m.AddEdge(0, 1)
	m.AddEdge(1, 2)
	if _, err := m.Trail(0, 1); err == nil {
		t.Fatal("wrong endpoints must fail")
	}
	if _, err := m.Trail(0, 0); err == nil {
		t.Fatal("equal endpoints must fail")
	}
}

// TestRandomEulerian builds random connected multigraphs with exactly two
// odd-degree vertices and verifies the trail joins them and uses every
// edge exactly once.
func TestRandomEulerian(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(10)
		m := NewMultigraph(n)
		// Union of random closed walks → all degrees even, connected
		// through vertex 0; one more edge {0,end} makes 0 and end the
		// two odd vertices.
		for w := 0; w < 3; w++ {
			prev := 0
			steps := 2 + r.Intn(5)
			for s := 0; s < steps; s++ {
				nxt := r.Intn(n)
				for nxt == prev {
					nxt = r.Intn(n)
				}
				m.AddEdge(prev, nxt)
				prev = nxt
			}
			if prev != 0 {
				m.AddEdge(prev, 0)
			}
		}
		end := 1 + r.Intn(n-1)
		m.AddEdge(0, end)
		walk, err := m.Trail(0, end)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkWalk(t, m, walk, 0, m.EdgeCount())
		if walk[len(walk)-1] != end {
			t.Fatalf("trial %d: trail ends at %d, want %d", trial, walk[len(walk)-1], end)
		}
		// Every consecutive pair must be a real edge; count multiplicity.
		type pair [2]int
		mult := map[pair]int{}
		for e := 0; e < m.EdgeCount(); e++ {
			a, b := int(m.to[2*e+1]), int(m.to[2*e])
			if a > b {
				a, b = b, a
			}
			mult[pair{a, b}]++
		}
		for i := 1; i < len(walk); i++ {
			a, b := walk[i-1], walk[i]
			if a > b {
				a, b = b, a
			}
			if mult[pair{a, b}] == 0 {
				t.Fatalf("trial %d: walk step %d-%d not an available edge", trial, a, b)
			}
			mult[pair{a, b}]--
		}
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultigraph(2).AddEdge(1, 1)
}

// TestEmptyWalk: an edgeless multigraph has no trail between two
// vertices (both have even degree 0), and one edge is the shortest trail.
func TestEmptyWalk(t *testing.T) {
	m := NewMultigraph(2)
	if walk, err := m.Trail(0, 1); err == nil {
		t.Fatalf("edgeless trail: %v", walk)
	}
	m.AddEdge(0, 1)
	walk, err := m.Trail(1, 0)
	if err != nil || !slices.Equal(walk, []int{1, 0}) {
		t.Fatalf("one-edge trail: %v %v", walk, err)
	}
}
