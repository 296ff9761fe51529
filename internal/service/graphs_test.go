package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
)

// ---------------------------------------------------------------------------
// POST /v1/graphs and graphRef solves

func postRaw(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func internGraph(t *testing.T, base string, g *graph.Graph) GraphsResponse {
	t.Helper()
	body, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postRaw(t, base+"/v1/graphs", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/graphs: %d %s", resp.StatusCode, data)
	}
	var gr GraphsResponse
	if err := json.Unmarshal(data, &gr); err != nil {
		t.Fatal(err)
	}
	return gr
}

func TestGraphsInternAllTransports(t *testing.T) {
	ts := newTestServer(t, nil)
	g := graph.Cycle(5)

	jsonRef := internGraph(t, ts.URL, g)
	if jsonRef.N != 5 || jsonRef.M != 5 || jsonRef.GraphRef == "" {
		t.Fatalf("JSON intern: %+v", jsonRef)
	}
	if jsonRef.Reinterned {
		t.Fatal("first submission flagged reinterned")
	}

	// DIMACS text transport → same structural ref.
	var doc strings.Builder
	if err := graph.Write(&doc, g); err != nil {
		t.Fatal(err)
	}
	resp, data := postRaw(t, ts.URL+"/v1/graphs", "text/plain", []byte(doc.String()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DIMACS intern: %d %s", resp.StatusCode, data)
	}
	var dimacsRef GraphsResponse
	if err := json.Unmarshal(data, &dimacsRef); err != nil {
		t.Fatal(err)
	}
	if dimacsRef.GraphRef != jsonRef.GraphRef {
		t.Fatalf("DIMACS ref %s != JSON ref %s", dimacsRef.GraphRef, jsonRef.GraphRef)
	}
	if !dimacsRef.Reinterned {
		t.Fatal("re-submission not flagged reinterned")
	}

	// Binary transport → same ref again.
	resp, data = postRaw(t, ts.URL+"/v1/graphs", graph.BinaryContentType, graph.AppendBinary(nil, g))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary intern: %d %s", resp.StatusCode, data)
	}
	var binRef GraphsResponse
	if err := json.Unmarshal(data, &binRef); err != nil {
		t.Fatal(err)
	}
	if binRef.GraphRef != jsonRef.GraphRef {
		t.Fatalf("binary ref %s != JSON ref %s", binRef.GraphRef, jsonRef.GraphRef)
	}
}

// TestGraphsReinternedIsPerRequest: the reinterned flag describes this
// request's graph alone. While another client re-interns one graph in a
// loop, every fresh graph still reads reinterned: false.
func TestGraphsReinternedIsPerRequest(t *testing.T) {
	ts := newTestServer(t, nil)
	hot, err := json.Marshal(graph.Cycle(9))
	if err != nil {
		t.Fatal(err)
	}
	internGraph(t, ts.URL, graph.Cycle(9))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(hot)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 200; i++ {
		if gr := internGraph(t, ts.URL, graph.Path(3+i)); gr.Reinterned {
			t.Fatalf("fresh graph %d (P%d) reported reinterned", i, 3+i)
		}
	}
}

func TestGraphsBadBodies(t *testing.T) {
	ts := newTestServer(t, &Config{MaxVertices: 16})
	cases := []struct {
		name, ct   string
		body       []byte
		wantStatus int
	}{
		{"self-loop json", "application/json", []byte(`{"n":3,"edges":[[1,1]]}`), 400},
		{"range json", "application/json", []byte(`{"n":3,"edges":[[0,9]]}`), 400},
		{"garbage json", "application/json", []byte(`{{`), 400},
		{"bad dimacs", "text/plain", []byte("p edge x"), 400},
		{"bad frame", graph.BinaryContentType, []byte("NOPE"), 400},
		{"frame trailing", graph.BinaryContentType, append(graph.AppendBinary(nil, graph.Path(3)), 'x'), 400},
		{"too large", "application/json", func() []byte {
			b, _ := json.Marshal(graph.Path(40))
			return b
		}(), 413},
	}
	for _, c := range cases {
		resp, data := postRaw(t, ts.URL+"/v1/graphs", c.ct, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, data, c.wantStatus)
		}
	}
}

func TestSolveByGraphRef(t *testing.T) {
	ts := newTestServer(t, nil)
	g := graph.MustParse("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1")
	ref := internGraph(t, ts.URL, g).GraphRef

	resp, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: "byref", GraphRef: ref, P: labeling.Vector{2, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graphRef solve: %d %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID != "byref" || sr.Span != 4 {
		t.Fatalf("λ(C5; 2,1): got span %d (%+v), want 4", sr.Span, sr)
	}

	// The resolved solve and a full-body solve of the same instance share
	// one cache identity.
	resp, data = postJSON(t, ts.URL+"/v1/solve", solveReq("full", g, labeling.Vector{2, 1}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-body solve: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.CacheHit {
		t.Fatal("full-body solve after graphRef solve missed the solve cache")
	}
}

func TestSolveUnknownGraphRef(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, data := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{GraphRef: strings.Repeat("ab", 16), P: labeling.Vector{2, 1}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d (%s), want 404", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Code != "unknownGraphRef" {
		t.Fatalf("code %q, want unknownGraphRef", sr.Code)
	}
	if sr.Error == "" {
		t.Fatal("missing error message")
	}
}

func TestSolveGraphRefConflictsAndShape(t *testing.T) {
	ts := newTestServer(t, nil)
	g := graph.Cycle(4)
	ref := internGraph(t, ts.URL, g).GraphRef

	// Both graph and graphRef → 400.
	resp, data := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Graph: g, GraphRef: ref, P: labeling.Vector{2, 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflict: status %d (%s), want 400", resp.StatusCode, data)
	}
	// Malformed ref → 400, not 404 (it could never have been interned).
	resp, data = postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{GraphRef: "not-a-ref", P: labeling.Vector{2, 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ref: status %d (%s), want 400", resp.StatusCode, data)
	}
	// Neither → 400 missing graph.
	resp, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{P: labeling.Vector{2, 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing graph: status %d (%s), want 400", resp.StatusCode, data)
	}
}

func TestGraphRefEvictionThen404(t *testing.T) {
	// Capacity 2 collapses to one shard with classic LRU order.
	ts := newTestServer(t, &Config{GraphStoreCapacity: 2})
	refs := make([]string, 3)
	for i := range refs {
		refs[i] = internGraph(t, ts.URL, graph.Path(3+i)).GraphRef
	}
	resp, data := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{GraphRef: refs[0], P: labeling.Vector{2, 1}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted ref: status %d (%s), want 404", resp.StatusCode, data)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{GraphRef: refs[2], P: labeling.Vector{2, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resident ref: status %d, want 200", resp.StatusCode)
	}
	st := getStats(t, ts.URL)
	if st.Graphs.Evictions != 1 || st.Graphs.Puts != 3 {
		t.Fatalf("graphs stats: %+v", st.Graphs)
	}
	if st.Graphs.Hits != 1 || st.Graphs.Misses != 1 {
		t.Fatalf("resolution counters: %+v", st.Graphs)
	}
}

func TestGraphStoreDisabled(t *testing.T) {
	ts := newTestServer(t, &Config{GraphStoreCapacity: -1})
	gr := internGraph(t, ts.URL, graph.Cycle(4))
	if gr.GraphRef == "" {
		t.Fatal("disabled store must still return the ref")
	}
	resp, _ := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{GraphRef: gr.GraphRef, P: labeling.Vector{2, 1}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 from a disabled store", resp.StatusCode)
	}
	if st := getStats(t, ts.URL); st.Graphs.Capacity != 0 {
		t.Fatalf("capacity %d, want 0", st.Graphs.Capacity)
	}
}

func TestBatchByGraphRef(t *testing.T) {
	ts := newTestServer(t, nil)
	ref := internGraph(t, ts.URL, graph.Cycle(5)).GraphRef
	req := BatchRequest{Items: []SolveRequest{
		{ID: "a", GraphRef: ref, P: labeling.Vector{2, 1}},
		{ID: "b", Graph: graph.Path(4), P: labeling.Vector{2, 1}},
		{ID: "c", GraphRef: ref, P: labeling.Vector{1, 1}},
	}}
	resp, data := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	spans := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var line SolveResponse
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Error != "" {
			t.Fatalf("item %s failed: %s", line.ID, line.Error)
		}
		spans[line.ID] = line.Span
	}
	if len(spans) != 3 || spans["a"] != 4 || spans["b"] != 3 || spans["c"] != 4 {
		t.Fatalf("spans = %v", spans)
	}

	// One bad ref rejects the whole batch before admission.
	req.Items[1] = SolveRequest{ID: "bad", GraphRef: strings.Repeat("00", 16), P: labeling.Vector{2, 1}}
	resp, data = postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad ref in batch: %d (%s), want 404", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Code != "unknownGraphRef" {
		t.Fatalf("code %q, want unknownGraphRef", sr.Code)
	}
}

func TestSolveBinaryBody(t *testing.T) {
	ts := newTestServer(t, nil)
	g := graph.Cycle(5)
	body := graph.AppendBinary(nil, g)
	body = append(body, []byte(`{"id":"bin","p":[2,1]}`)...)
	resp, data := postRaw(t, ts.URL+"/v1/solve", graph.BinaryContentType, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary solve: %d %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID != "bin" || sr.Span != 4 {
		t.Fatalf("binary solve: %+v", sr)
	}

	// Envelope must not smuggle a second graph.
	body = graph.AppendBinary(nil, g)
	body = append(body, []byte(`{"p":[2,1],"graph":{"n":1,"edges":[]}}`)...)
	resp, data = postRaw(t, ts.URL+"/v1/solve", graph.BinaryContentType, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("double graph: %d (%s), want 400", resp.StatusCode, data)
	}
	// Missing envelope → validation rejects the absent p.
	resp, data = postRaw(t, ts.URL+"/v1/solve", graph.BinaryContentType, graph.AppendBinary(nil, g))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no envelope: %d (%s), want 400", resp.StatusCode, data)
	}
	// Corrupt frame → 400.
	resp, data = postRaw(t, ts.URL+"/v1/solve", graph.BinaryContentType, []byte("LPGX"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame: %d (%s), want 400", resp.StatusCode, data)
	}
}

// TestGraphsConcurrentInternAndSolve is pinned in CI's -race step:
// concurrent interning, graphRef solves sharing one stored graph, and
// stats sweeps must be race-clean end to end.
func TestGraphsConcurrentInternAndSolve(t *testing.T) {
	ts := newTestServer(t, &Config{Workers: 4, GraphStoreCapacity: 8})
	r := rng.New(42)
	refs := make([]string, 4)
	for i := range refs {
		refs[i] = internGraph(t, ts.URL, graph.RandomSmallDiameter(r, 12+i, 3, 0.2)).GraphRef
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (w + i) % 3 {
				case 0:
					// The concurrent intern churn may evict a ref between
					// solves; 404 is then the correct answer, not a failure.
					resp, data := postJSON(t, ts.URL+"/v1/solve",
						SolveRequest{GraphRef: refs[i%len(refs)], P: labeling.Vector{2, 1}})
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						t.Errorf("graphRef solve: %d %s", resp.StatusCode, data)
					}
				case 1:
					internGraph(t, ts.URL, graph.Cycle(3+i%5))
				default:
					getStats(t, ts.URL)
				}
			}
		}()
	}
	wg.Wait()
	st := getStats(t, ts.URL)
	if st.Graphs.Entries > st.Graphs.Capacity {
		t.Fatalf("intern store over budget: %+v", st.Graphs)
	}
}
