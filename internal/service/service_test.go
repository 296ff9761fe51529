package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
)

// ---------------------------------------------------------------------------
// test harness

// blockMethod is a planner method that parks until the test releases it —
// a deterministic way to fill the admission queue and to exercise
// cancellation, without timing-dependent slow instances. It only applies
// when explicitly pinned, so it never perturbs auto-planned routes.
type blockMethod struct{}

const blockName core.MethodName = "test-block"

var (
	blockMu      sync.Mutex
	blockRelease chan struct{}
)

// resetBlock arms the gate; the returned func opens it.
func resetBlock() func() {
	blockMu.Lock()
	ch := make(chan struct{})
	blockRelease = ch
	blockMu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func (blockMethod) Name() core.MethodName { return blockName }

func (blockMethod) Check(pr *core.Probe, p labeling.Vector, opts *core.Options) core.Applicability {
	if opts == nil || opts.Method != blockName {
		return core.Applicability{Reason: "test method; pin it explicitly"}
	}
	return core.Applicability{OK: true, Cost: 1, Reason: "test gate"}
}

func (blockMethod) Solve(ctx context.Context, pr *core.Probe, p labeling.Vector, opts *core.Options) (*core.Result, error) {
	blockMu.Lock()
	ch := blockRelease
	blockMu.Unlock()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-ch:
	}
	lab, span, err := labeling.GreedyFirstFit(pr.G, p, labeling.OrderDegree)
	if err != nil {
		return nil, err
	}
	return &core.Result{Labeling: lab, Span: span, Method: blockName}, nil
}

var registerBlockOnce sync.Once

func newTestServer(t *testing.T, cfg *Config) *httptest.Server {
	t.Helper()
	registerBlockOnce.Do(func() { core.RegisterMethod(blockMethod{}) })
	ts := httptest.NewServer(NewServer(cfg))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func solveReq(id string, g *graph.Graph, p labeling.Vector) SolveRequest {
	return SolveRequest{ID: id, Graph: g, P: p}
}

// ---------------------------------------------------------------------------
// /v1/solve

func TestSolveEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)

	c4 := graph.Cycle(4)
	req := solveReq("c4", c4, labeling.L21())
	req.Explain = true
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID != "c4" || sr.Span != 4 || !sr.Exact || sr.Error != "" {
		t.Fatalf("bad response: %+v", sr)
	}
	if sr.Method == "" || sr.Plan == nil || sr.Plan.Chosen != sr.Method {
		t.Fatalf("provenance missing: method=%q plan=%+v", sr.Method, sr.Plan)
	}
	if len(sr.Labeling) != 4 {
		t.Fatalf("labeling %v", sr.Labeling)
	}
	if err := labeling.Verify(c4, labeling.L21(), sr.Labeling); err != nil {
		t.Fatalf("response labeling invalid: %v", err)
	}
	if sr.CacheHit {
		t.Fatal("first solve cannot be a cache hit")
	}

	// The same instance again is served from the shared cache.
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveReq("again", c4, labeling.L21()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr2 SolveResponse
	if err := json.Unmarshal(body, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.CacheHit || sr2.Span != 4 {
		t.Fatalf("expected cache hit with span 4: %+v", sr2)
	}
}

func TestSolveRequestErrors(t *testing.T) {
	ts := newTestServer(t, &Config{MaxVertices: 8})

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{"graph":`, http.StatusBadRequest},
		{"missing graph", `{"p":[2,1]}`, http.StatusBadRequest},
		{"empty p", `{"graph":{"n":2,"edges":[[0,1]]},"p":[]}`, http.StatusBadRequest},
		{"negative p", `{"graph":{"n":2,"edges":[[0,1]]},"p":[-1]}`, http.StatusBadRequest},
		{"unknown field", `{"graf":{"n":2}}`, http.StatusBadRequest},
		{"unknown method", `{"graph":{"n":2,"edges":[[0,1]]},"p":[2,1],"options":{"method":"nope"}}`, http.StatusBadRequest},
		{"unknown algorithm", `{"graph":{"n":2,"edges":[[0,1]]},"p":[2,1],"options":{"algorithm":"nope"}}`, http.StatusBadRequest},
		{"unknown roster engine", `{"graph":{"n":2,"edges":[[0,1]]},"p":[2,1],"options":{"algorithm":"portfolio","engines":["nope"]}}`, http.StatusBadRequest},
		{"bad graph edge", `{"graph":{"n":2,"edges":[[0,5]]},"p":[2,1]}`, http.StatusBadRequest},
		{"malformed edge tuple", `{"graph":{"n":2,"edges":[[0]]},"p":[2,1]}`, http.StatusBadRequest},
		{"too large", `{"graph":{"n":9,"edges":[]},"p":[2,1]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
		var sr SolveResponse
		if err := json.Unmarshal(data, &sr); err != nil || sr.Error == "" {
			t.Errorf("%s: error body missing: %s", tc.name, data)
		}
	}

	// A pinned method whose hypotheses fail is the request's fault: 422.
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Graph:   graph.Cycle(4),
		P:       labeling.L21(),
		Options: &WireOptions{Method: "tree"},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("pinned inapplicable method: status %d (%s)", resp.StatusCode, body)
	}

	// Wrong verb and unknown route.
	if resp, err := http.Get(ts.URL + "/v1/solve"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/solve: status %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown route: status %d", resp.StatusCode)
		}
	}
}

func TestSolveDIMACSStringGraph(t *testing.T) {
	ts := newTestServer(t, nil)
	body := `{"graph":"p edge 3 2\ne 1 2\ne 2 3","p":[2,1]}`
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Span != 3 { // λ_{2,1}(P3) = 3
		t.Fatalf("span %d, want 3", sr.Span)
	}
}

// ---------------------------------------------------------------------------
// backpressure

func TestAdmissionQueueBackpressure(t *testing.T) {
	release := resetBlock()
	defer release()
	ts := newTestServer(t, &Config{Workers: 1, QueueDepth: 2})

	opts := &WireOptions{Method: string(blockName), NoCache: true}
	respCh := make(chan int, 2)
	for i := 0; i < 2; i++ {
		req := SolveRequest{ID: fmt.Sprintf("blocked-%d", i), Graph: graph.Path(3 + i), P: labeling.L21(), Options: opts}
		go func() {
			resp, _ := postJSON(t, ts.URL+"/v1/solve", req)
			respCh <- resp.StatusCode
		}()
	}
	// Both jobs hold admission tickets: one solving, one queued.
	eventually(t, "two admitted jobs", func() bool {
		st := getStats(t, ts.URL)
		return st.Admitted == 2 && st.InFlight == 1 && st.Queued == 1
	})

	// The queue is full: the next request must bounce with 429.
	resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq("turned-away", graph.Path(9), labeling.L21()))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil || sr.Error == "" {
		t.Fatalf("429 body: %s", body)
	}

	// A full queue also rejects whole batches (all-or-nothing admission).
	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: []SolveRequest{
		solveReq("b1", graph.Path(4), labeling.L21()),
	}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status %d, want 429 (%s)", resp.StatusCode, body)
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-respCh; code != http.StatusOK {
			t.Fatalf("blocked request finished with %d", code)
		}
	}
	// Tickets drain back to zero and the rejections were counted.
	eventually(t, "queue drained", func() bool {
		st := getStats(t, ts.URL)
		return st.Queued == 0 && st.InFlight == 0
	})
	st := getStats(t, ts.URL)
	if st.Rejected != 2 || st.Admitted != 2 || st.Solved != 2 {
		t.Fatalf("counters: %+v", st)
	}
}

// ---------------------------------------------------------------------------
// batch streaming

func TestBatchNDJSONStream(t *testing.T) {
	ts := newTestServer(t, &Config{Workers: 2})

	// Pre-warm the cache with the instance the batch repeats, so both of
	// its occurrences are deterministic hits regardless of worker timing.
	if resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq("warm", graph.Cycle(5), labeling.L21())); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: %d (%s)", resp.StatusCode, body)
	}

	// A mixed batch: cycle (reduction), tree route, disconnected
	// (components), uniform p (fpt-coloring), and a repeated instance to
	// hit the cache.
	tree := graph.MustParse("p edge 4 3\ne 1 2\ne 1 3\ne 1 4") // star K1,3
	items := []SolveRequest{
		solveReq("cycle", graph.Cycle(5), labeling.L21()),
		solveReq("tree", tree, labeling.L21()),
		solveReq("multi", graph.DisjointUnion(graph.Path(3), graph.Cycle(4)), labeling.L21()),
		solveReq("uniform", graph.Cycle(5), labeling.Ones(2)),
		solveReq("cycle-again", graph.Cycle(5), labeling.L21()),
	}
	b, _ := json.Marshal(BatchRequest{Items: items})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	got := map[string]SolveResponse{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sr SolveResponse
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		got[sr.ID] = sr
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d lines, want %d: %v", len(got), len(items), got)
	}
	// λ_{2,1}(C5)=4, λ_{2,1}(K1,3)=Δ+1=4, λ_{2,1}(P3 ∪ C4)=max(3,4)=4,
	// and p=(1,1) on C5 needs 5 distinct labels (C5² = K5): span 4.
	want := map[string]int{"cycle": 4, "tree": 4, "multi": 4, "uniform": 4, "cycle-again": 4}
	for id, span := range want {
		sr, ok := got[id]
		if !ok {
			t.Fatalf("missing result for %q", id)
		}
		if sr.Error != "" {
			t.Fatalf("%s failed: %s", id, sr.Error)
		}
		if sr.Span != span {
			t.Errorf("%s: span %d, want %d", id, sr.Span, span)
		}
		if !sr.Exact {
			t.Errorf("%s: expected exact", id)
		}
	}
	if got["multi"].Method != string(core.MethodComponents) {
		t.Errorf("multi routed to %q, want components", got["multi"].Method)
	}
	if !got["cycle-again"].CacheHit || !got["cycle"].CacheHit {
		t.Error("pre-warmed repeated instance did not hit the cache")
	}
}

func TestBatchValidation(t *testing.T) {
	ts := newTestServer(t, &Config{MaxVertices: 8})
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d (%s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: []SolveRequest{{ID: "nograph", P: labeling.L21()}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid item: status %d (%s)", resp.StatusCode, body)
	}
	// The size gate answers 413 on the batch endpoint too.
	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: []SolveRequest{
		solveReq("big", graph.Path(9), labeling.L21()),
	}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized item: status %d, want 413 (%s)", resp.StatusCode, body)
	}
}

// TestBatchMixedOptions: items with different option sets run in
// concurrent pools with one merged NDJSON stream — every item still
// yields exactly one line.
func TestBatchMixedOptions(t *testing.T) {
	ts := newTestServer(t, &Config{Workers: 2})
	yes := true
	items := []SolveRequest{
		solveReq("default", graph.Cycle(5), labeling.L21()),
		{ID: "nocache", Graph: graph.Path(6), P: labeling.L21(), Options: &WireOptions{NoCache: true}},
		{ID: "engine", Graph: graph.Wheel(6), P: labeling.L21(), Options: &WireOptions{Algorithm: "2opt", Verify: &yes}},
	}
	b, _ := json.Marshal(BatchRequest{Items: items})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := map[string]SolveResponse{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sr SolveResponse
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if sr.Error != "" {
			t.Fatalf("%s failed: %s", sr.ID, sr.Error)
		}
		got[sr.ID] = sr
	}
	if len(got) != len(items) {
		t.Fatalf("got %d lines, want %d: %v", len(got), len(items), got)
	}
	if got["engine"].Algorithm != "2opt" {
		t.Fatalf("pinned engine not honored: %+v", got["engine"])
	}
}

// ---------------------------------------------------------------------------
// deadlines and disconnects

func TestDeadlineMapsToOptions(t *testing.T) {
	_ = resetBlock() // never released: only the deadline can end the solve
	ts := newTestServer(t, &Config{Workers: 2, MaxDeadline: 10 * time.Second})

	req := SolveRequest{
		Graph:   graph.Path(5),
		P:       labeling.L21(),
		Options: &WireOptions{Method: string(blockName), NoCache: true, DeadlineMs: 50},
	}
	t0 := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408 (%s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("deadline did not fire promptly: %v", elapsed)
	}
}

func TestClientDisconnectCancelsSolve(t *testing.T) {
	release := resetBlock()
	defer release()
	ts := newTestServer(t, &Config{Workers: 2})

	req := SolveRequest{
		Graph:   graph.Path(6),
		P:       labeling.L21(),
		Options: &WireOptions{Method: string(blockName), NoCache: true},
	}
	b, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Wait until the solve is actually running, then hang up.
	eventually(t, "solve in flight", func() bool { return getStats(t, ts.URL).InFlight == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("expected client-side cancellation error")
	}
	// The server-side solve unwinds cooperatively without the release.
	eventually(t, "solve cancelled server-side", func() bool {
		st := getStats(t, ts.URL)
		return st.InFlight == 0 && st.Queued == 0 && st.Failed >= 1
	})
}

// ---------------------------------------------------------------------------
// health and stats

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health %+v", h)
	}
}

// ---------------------------------------------------------------------------
// the acceptance-criteria load test: 100 concurrent requests, mixed solo
// and batch, overlapping instances, run under -race by CI.

func TestConcurrentMixedLoad(t *testing.T) {
	ts := newTestServer(t, &Config{Workers: 4, QueueDepth: 1024})

	// A small pool of distinct instances, so concurrent clients overlap
	// and the shared cache sees repeats.
	pool := []*graph.Graph{
		graph.Cycle(5),
		graph.Path(7),
		graph.MustParse("p edge 4 3\ne 1 2\ne 1 3\ne 1 4"),
		graph.DisjointUnion(graph.Path(3), graph.Cycle(4)),
		graph.Complete(5),
	}
	vectors := []labeling.Vector{labeling.L21(), labeling.Ones(2), {2, 2}}

	const (
		soloClients  = 80
		batchClients = 5
		batchSize    = 4
	)
	var wg sync.WaitGroup
	errCh := make(chan error, soloClients+batchClients)

	for i := 0; i < soloClients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := pool[i%len(pool)]
			p := vectors[i%len(vectors)]
			resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq(fmt.Sprintf("solo-%d", i), g, p))
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("solo-%d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			var sr SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				errCh <- fmt.Errorf("solo-%d: %v", i, err)
				return
			}
			if err := labeling.Verify(g, p, sr.Labeling); err != nil {
				errCh <- fmt.Errorf("solo-%d: invalid labeling: %v", i, err)
			}
		}()
	}
	for i := 0; i < batchClients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([]SolveRequest, batchSize)
			for j := range items {
				items[j] = solveReq(fmt.Sprintf("batch-%d-%d", i, j),
					pool[(i+j)%len(pool)], vectors[(i+j)%len(vectors)])
			}
			b, _ := json.Marshal(BatchRequest{Items: items})
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(b))
			if err != nil {
				errCh <- fmt.Errorf("batch-%d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("batch-%d: status %d", i, resp.StatusCode)
				return
			}
			lines := 0
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var sr SolveResponse
				if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
					errCh <- fmt.Errorf("batch-%d: bad line: %v", i, err)
					return
				}
				if sr.Error != "" {
					errCh <- fmt.Errorf("batch-%d item %s: %s", i, sr.ID, sr.Error)
					return
				}
				lines++
			}
			if lines != batchSize {
				errCh <- fmt.Errorf("batch-%d: %d lines, want %d", i, lines, batchSize)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The handler's deferred ticket release may lag the response by a
	// beat; poll the gauges down before asserting the counters.
	eventually(t, "gauges drained", func() bool {
		st := getStats(t, ts.URL)
		return st.Queued == 0 && st.InFlight == 0
	})
	const totalJobs = soloClients + batchClients*batchSize
	st := getStats(t, ts.URL)
	if st.Admitted != totalJobs || st.Rejected != 0 {
		t.Fatalf("admission: %+v (want %d admitted, 0 rejected)", st, totalJobs)
	}
	if st.Solved != totalJobs || st.Failed != 0 {
		t.Fatalf("completion: %+v (want %d solved)", st, totalJobs)
	}
	// Cache consistency: every job was a lookup (all requests are
	// cacheable), repeats hit, and the stats add up.
	if st.Cache.Hits == 0 || st.Cache.HitRate <= 0 {
		t.Fatalf("no cache hits on overlapping traffic: %+v", st.Cache)
	}
	if st.Cache.Hits+st.Cache.Misses < totalJobs {
		t.Fatalf("cache lookups %d < jobs %d", st.Cache.Hits+st.Cache.Misses, totalJobs)
	}
	// The per-method counters are this server's own, so they must sum to
	// exactly the jobs this test solved.
	var methodTotal int64
	for _, v := range st.Methods {
		methodTotal += v
	}
	if methodTotal != totalJobs {
		t.Fatalf("method counters sum to %d, want %d: %v", methodTotal, totalJobs, st.Methods)
	}
}

// TestServiceLoadStatsExact is the sharded-cache/no-lost-stats load test
// (run under -race in CI): 120 concurrent requests over connected,
// non-trivial, cacheable instances, then EXACT reconciliation of every
// counter. Connected graphs make each request exactly one cache lookup
// (no per-component sub-lookups), so under the sharded cache and the
// atomic method counters nothing may be lost or double counted:
//
//	hits + misses      == requests
//	solved             == requests
//	Σ method counters  == requests
//	coalesced          ≤ hits + coalesced ≤ requests − distinct instances
func TestServiceLoadStatsExact(t *testing.T) {
	ts := newTestServer(t, &Config{Workers: 4, QueueDepth: 1024})

	pool := []*graph.Graph{
		graph.Cycle(5),
		graph.Cycle(6),
		graph.Path(7),
		graph.Complete(5),
		graph.Wheel(6),
		graph.MustParse("p edge 4 3\ne 1 2\ne 1 3\ne 1 4"),
	}
	vectors := []labeling.Vector{labeling.L21(), {2, 2}}
	distinct := len(pool) * len(vectors)

	const clients = 120
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := pool[i%len(pool)]
			p := vectors[(i/len(pool))%len(vectors)]
			resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq(fmt.Sprintf("x-%d", i), g, p))
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("x-%d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			var sr SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				errCh <- fmt.Errorf("x-%d: %v", i, err)
				return
			}
			if sr.Coalesced && !sr.CacheHit {
				errCh <- fmt.Errorf("x-%d: coalesced without cacheHit", i)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	eventually(t, "gauges drained", func() bool {
		st := getStats(t, ts.URL)
		return st.Queued == 0 && st.InFlight == 0
	})
	st := getStats(t, ts.URL)
	if st.Solved != clients || st.Failed != 0 {
		t.Fatalf("completion does not reconcile: %+v (want %d solved)", st, clients)
	}
	if st.Cache.Hits+st.Cache.Misses != clients {
		t.Fatalf("lost cache lookups: hits %d + misses %d != %d requests (%+v)",
			st.Cache.Hits, st.Cache.Misses, clients, st.Cache)
	}
	// Every request beyond the first solve of each distinct instance was
	// served from shared state: an LRU hit or a coalesced flight.
	if served := st.Cache.Hits + st.Cache.Coalesced; served != int64(clients-distinct) {
		t.Fatalf("served-from-shared-state %d (hits %d + coalesced %d), want %d",
			served, st.Cache.Hits, st.Cache.Coalesced, clients-distinct)
	}
	var methodTotal int64
	for _, v := range st.Methods {
		methodTotal += v
	}
	if methodTotal != clients {
		t.Fatalf("method counters sum to %d, want %d: %v", methodTotal, clients, st.Methods)
	}
}

// TestMethodCountRules pins what the methods block of /v1/stats counts:
// one count per successful solve or batch item, under the route its
// result names, and solved is their sum.
func TestMethodCountRules(t *testing.T) {
	ts := newTestServer(t, nil)
	cycle := graph.Cycle(4)
	multi := graph.DisjointUnion(graph.Path(3), graph.Cycle(4))
	want := map[string]int64{} // successful responses per reported method

	// A repeated instance counts under the method that filled the cache
	// entry, hit or not.
	for i := 0; i < 3; i++ {
		status, sr := postSolve(t, ts.URL, solveReq("c4", cycle, labeling.L21()))
		if status != http.StatusOK || sr.CacheHit != (i > 0) {
			t.Fatalf("solve %d: status %d cacheHit %v (%s)", i, status, sr.CacheHit, sr.Error)
		}
		want[sr.Method]++
	}
	// A disconnected instance counts once, under components.
	status, sr := postSolve(t, ts.URL, solveReq("multi", multi, labeling.L21()))
	if status != http.StatusOK || sr.Method != string(core.MethodComponents) {
		t.Fatalf("disconnected solve: status %d method %q (%s)", status, sr.Method, sr.Error)
	}
	want[sr.Method]++
	// A failed solve counts under failed and under no method.
	pinned := SolveRequest{ID: "pinned", Graph: multi, P: labeling.L21(), Options: &WireOptions{Method: string(core.MethodReduction)}}
	if status, sr := postSolve(t, ts.URL, pinned); status != http.StatusUnprocessableEntity {
		t.Fatalf("pinned reduction on a disconnected graph: status %d (%s)", status, sr.Error)
	}
	// Batch items count one each.
	_, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: []SolveRequest{
		solveReq("b-c4", cycle, labeling.L21()),
		solveReq("b-multi", multi, labeling.L21()),
		solveReq("b-p6", graph.Path(6), labeling.L21()),
	}})
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var sr SolveResponse
		if err := json.Unmarshal(line, &sr); err != nil || sr.Error != "" {
			t.Fatalf("batch line %s: %v", line, err)
		}
		want[sr.Method]++
	}

	st := getStats(t, ts.URL)
	if len(want) != 3 || want[string(core.MethodComponents)] != 2 {
		t.Fatalf("routes %v: want three, components twice", want)
	}
	var sum int64
	for m, n := range st.Methods {
		sum += n
		if n != want[m] {
			t.Errorf("methods[%s] = %d, want %d", m, n, want[m])
		}
	}
	if len(st.Methods) != len(want) || sum != 7 || st.Solved != sum || st.Failed != 1 {
		t.Fatalf("methods %v (Σ %d), solved %d, failed %d; want %v (Σ 7), 7, 1", st.Methods, sum, st.Solved, st.Failed, want)
	}
}
