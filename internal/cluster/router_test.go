package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
	"lpltsp/internal/service"
)

// newTestCluster boots n live lplserve handlers, each with an isolated
// solve cache, optionally wired together with peer-fill L2s, behind one
// router — the whole cluster in-process, no sockets.
func newTestCluster(t *testing.T, n int, seed uint64, peerFill bool) (*Router, []*service.Server, []*core.SolveCache) {
	t.Helper()
	backends := make([]Backend, n)
	caches := make([]*core.SolveCache, n)
	servers := make([]*service.Server, n)
	for i := range backends {
		caches[i] = core.NewSolveCache(256)
		servers[i] = service.NewServer(&service.Config{Cache: caches[i]})
		backends[i] = Backend{Name: fmt.Sprintf("b%d", i), Doer: HandlerDoer{Handler: servers[i]}}
	}
	if peerFill {
		for i := range backends {
			pf, err := NewPeerFill(backends[i].Name, backends, RingConfig{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			caches[i].SetL2(pf)
		}
	}
	rt, err := NewRouter(backends, RingConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return rt, servers, caches
}

func doJSON(t *testing.T, h http.Handler, method, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	ct := ""
	if body != nil {
		ct = "application/json"
	}
	return doRequest(t, h, method, path, ct, body)
}

// doRequest sends body through h with the given Content-Type (none when
// empty) and returns the response and its body.
func doRequest(t *testing.T, h http.Handler, method, path, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, "http://cluster"+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := HandlerDoer{Handler: h}.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// One graph's intern POST and every later graphRef solve of it must all
// land on the single owning backend.
func TestRouterGraphRefAffinity(t *testing.T) {
	rt, _, _ := newTestCluster(t, 3, 11, false)
	g := graph.RandomSmallDiameter(rng.New(3), 24, 3, 0.2)
	gb, _ := json.Marshal(g)
	resp, body := doJSON(t, rt, http.MethodPost, "/v1/graphs", gb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("intern via router: status %d: %s", resp.StatusCode, body)
	}
	var gr service.GraphsResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	owner := rt.Ring().Owner(gr.GraphRef)

	// Pin the cheap first-fit method: this test is about routing, not
	// solver wall time.
	sb, _ := json.Marshal(service.SolveRequest{GraphRef: gr.GraphRef, P: labeling.Vector{2, 2, 1},
		Options: &service.WireOptions{Method: "greedy"}})
	for i := 0; i < 3; i++ {
		resp, body := doJSON(t, rt, http.MethodPost, "/v1/solve", sb)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d via router: status %d: %s", i, resp.StatusCode, body)
		}
		var sr service.SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !sr.CacheHit {
			t.Errorf("repeat solve %d not a cache hit — requests not landing on one backend?", i)
		}
	}
	st := rt.Stats()
	for name, c := range st.PerBackend {
		want := int64(0)
		if name == owner {
			want = 4 // 1 intern + 3 solves
		}
		if c != want {
			t.Errorf("backend %s handled %d requests, want %d (owner %s)", name, c, want, owner)
		}
	}

	// HEAD routes by the same ref: present at the owner, so 200 through
	// the router, with the size headers intact.
	req, _ := http.NewRequest(http.MethodHead, "http://cluster/v1/graphs/"+gr.GraphRef, nil)
	hresp, err := HandlerDoer{Handler: rt}.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD interned ref via router: status %d", hresp.StatusCode)
	}
	if hresp.Header.Get("X-Lpl-N") != fmt.Sprint(g.N()) {
		t.Errorf("HEAD X-Lpl-N = %q, want %d", hresp.Header.Get("X-Lpl-N"), g.N())
	}
}

// Backend semantics pass through the router untouched: a pinned method
// whose hypotheses fail is the client's 422, not a router error.
func TestRouterPassesThroughBackendStatus(t *testing.T) {
	rt, _, _ := newTestCluster(t, 2, 5, false)
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3) // disconnected: the reduction's hypotheses fail
	body, _ := json.Marshal(service.SolveRequest{Graph: g, P: labeling.Vector{2, 1},
		Options: &service.WireOptions{Method: "reduction"}})
	resp, rb := doJSON(t, rt, http.MethodPost, "/v1/solve", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("pinned inapplicable method via router: status %d, want 422: %s", resp.StatusCode, rb)
	}
}

type deadDoer struct{}

func (deadDoer) Do(*http.Request) (*http.Response, error) {
	return nil, errors.New("connection refused")
}

// A dead backend moves an idempotent solve to the next distinct ring
// node instead of failing the request.
func TestRouterRetriesDeadBackend(t *testing.T) {
	live := service.NewServer(&service.Config{Cache: core.NewSolveCache(64)})
	backends := []Backend{
		{Name: "b0", Doer: deadDoer{}},
		{Name: "b1", Doer: HandlerDoer{Handler: live}},
	}
	rt, err := NewRouter(backends, RingConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Find an instance the dead backend owns, so the request must hop.
	r := rng.New(9)
	var g *graph.Graph
	for {
		g = graph.RandomSmallDiameter(r, 16, 3, 0.2)
		if rt.Ring().Owner(intern.Ref(g)) == "b0" {
			break
		}
	}
	body, _ := json.Marshal(service.SolveRequest{Graph: g, P: labeling.Vector{2, 2, 1}})
	resp, rb := doJSON(t, rt, http.MethodPost, "/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve owned by dead backend: status %d, want 200 via retry: %s", resp.StatusCode, rb)
	}
	st := rt.Stats()
	if st.Retries < 1 || st.DeadBackends < 1 {
		t.Errorf("retry counters: retries=%d deadBackends=%d, want ≥1 each", st.Retries, st.DeadBackends)
	}
	if st.PerBackend["b1"] != 1 {
		t.Errorf("live backend handled %d requests, want 1", st.PerBackend["b1"])
	}
}

// A batch whose items live on different owners is split per owner and
// the streams merged: every item comes back exactly once, by id.
func TestRouterSplitsBatchByOwner(t *testing.T) {
	rt, _, _ := newTestCluster(t, 2, 7, false)
	r := rng.New(21)
	var gs []*graph.Graph
	seen := map[string]bool{}
	for len(seen) < 2 || len(gs) < 4 {
		g := graph.RandomSmallDiameter(r, 16, 3, 0.2)
		gs = append(gs, g)
		seen[rt.Ring().Owner(intern.Ref(g))] = true
	}
	req := service.BatchRequest{}
	for i, g := range gs {
		req.Items = append(req.Items, service.SolveRequest{
			ID: fmt.Sprintf("item-%d", i), Graph: g, P: labeling.Vector{2, 2, 1}})
	}
	body, _ := json.Marshal(req)
	resp, rb := doJSON(t, rt, http.MethodPost, "/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("split batch: status %d: %s", resp.StatusCode, rb)
	}
	got := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(rb)), "\n") {
		var sr service.SolveResponse
		if err := json.Unmarshal([]byte(line), &sr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if sr.Error != "" {
			t.Errorf("item %s failed: %s", sr.ID, sr.Error)
		}
		if got[sr.ID] {
			t.Errorf("item %s delivered twice", sr.ID)
		}
		got[sr.ID] = true
	}
	if len(got) != len(gs) {
		t.Errorf("got %d result lines, want %d", len(got), len(gs))
	}
	if rt.Stats().SplitBatches != 1 {
		t.Errorf("splitBatches = %d, want 1", rt.Stats().SplitBatches)
	}
}

// A batch whose items all live on one owner is passed through to THAT
// owner — the owner computed from the items, not from some fixed key —
// so graphRef-only batches resolve against the node where the ref was
// interned.
func TestRouterSingleOwnerBatchRoutesToOwner(t *testing.T) {
	rt, _, _ := newTestCluster(t, 3, 13, false)
	// Pick a graph whose owner differs from the empty key's owner, so
	// routing by anything but the items' ref would demonstrably miss.
	arbitrary := rt.Ring().Owner("")
	r := rng.New(5)
	var g *graph.Graph
	for {
		g = graph.RandomSmallDiameter(r, 16, 3, 0.2)
		if rt.Ring().Owner(intern.Ref(g)) != arbitrary {
			break
		}
	}
	gb, _ := json.Marshal(g)
	resp, body := doJSON(t, rt, http.MethodPost, "/v1/graphs", gb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("intern via router: status %d: %s", resp.StatusCode, body)
	}
	var gr service.GraphsResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	owner := rt.Ring().Owner(gr.GraphRef)

	req := service.BatchRequest{Items: []service.SolveRequest{
		{ID: "a", GraphRef: gr.GraphRef, P: labeling.Vector{2, 2, 1}},
		{ID: "b", GraphRef: gr.GraphRef, P: labeling.Vector{2, 1}},
	}}
	bb, _ := json.Marshal(req)
	resp, rb := doJSON(t, rt, http.MethodPost, "/v1/batch", bb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-owner graphRef batch: status %d: %s", resp.StatusCode, rb)
	}
	got := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(rb)), "\n") {
		var sr service.SolveResponse
		if err := json.Unmarshal([]byte(line), &sr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if sr.Error != "" {
			t.Errorf("item %s failed: %s", sr.ID, sr.Error)
		}
		got[sr.ID] = true
	}
	if len(got) != len(req.Items) {
		t.Errorf("got %d result lines, want %d", len(got), len(req.Items))
	}
	st := rt.Stats()
	if st.SplitBatches != 0 {
		t.Errorf("splitBatches = %d, want 0 (single owner is pure passthrough)", st.SplitBatches)
	}
	for name, c := range st.PerBackend {
		want := int64(0)
		if name == owner {
			want = 2 // 1 intern + 1 batch
		}
		if c != want {
			t.Errorf("backend %s handled %d requests, want %d (owner %s)", name, c, want, owner)
		}
	}
}

// ownedGraphs draws count random graphs that the named backend owns.
func ownedGraphs(rt *Router, owner string, count int, seed uint64) []*graph.Graph {
	r := rng.New(seed)
	var gs []*graph.Graph
	for len(gs) < count {
		if g := graph.RandomSmallDiameter(r, 12, 3, 0.3); rt.Ring().Owner(intern.Ref(g)) == owner {
			gs = append(gs, g)
		}
	}
	return gs
}

// batchLines posts one batch of gs through the router and returns its
// NDJSON lines by item id ("item-i" for gs[i]), each delivered once.
func batchLines(t *testing.T, rt *Router, gs []*graph.Graph) map[string]service.SolveResponse {
	t.Helper()
	req := service.BatchRequest{}
	for i, g := range gs {
		req.Items = append(req.Items, service.SolveRequest{ID: fmt.Sprintf("item-%d", i), Graph: g, P: labeling.Vector{2, 1}})
	}
	body, _ := json.Marshal(req)
	resp, rb := doJSON(t, rt, http.MethodPost, "/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, rb)
	}
	lines := map[string]service.SolveResponse{}
	for _, line := range strings.Split(strings.TrimSpace(string(rb)), "\n") {
		var sr service.SolveResponse
		if err := json.Unmarshal([]byte(line), &sr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if _, dup := lines[sr.ID]; dup {
			t.Errorf("item %s delivered twice", sr.ID)
		}
		lines[sr.ID] = sr
	}
	if len(lines) != len(gs) {
		t.Errorf("got %d result lines, want %d", len(lines), len(gs))
	}
	return lines
}

// A batch whose owner cannot be reached still answers 200: each item
// that owner holds gets exactly one code "router" error line, the other
// owner's items are solved, and the lost owner counts as one dead
// backend. An open breaker fails the owner without a send.
func TestRouterBatchUnreachableOwner(t *testing.T) {
	for _, tc := range []struct {
		name      string
		lost      int // items owned by b0, which is unreachable
		live      int // items owned by b1
		breakerUp bool
	}{
		{"singleOwnerDead", 3, 0, false},
		{"singleOwnerBreakerOpen", 3, 0, true},
		{"splitOneDead", 2, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, doers, _ := newProbedCluster(t, 2, 7, ProbeConfig{})
			if tc.breakerUp {
				rt.ConfigureBreakers(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
				rt.Breakers().Report("b0", false)
			} else {
				doers[0].mode.Store(doerDead)
			}
			gs := append(ownedGraphs(rt, "b0", tc.lost, 1), ownedGraphs(rt, "b1", tc.live, 2)...)
			lines := batchLines(t, rt, gs)
			for i := range gs {
				sr := lines[fmt.Sprintf("item-%d", i)]
				if lost := i < tc.lost; lost != (sr.Code == "router") || lost != (sr.Error != "") {
					t.Errorf("item %d (lost=%v): code %q error %q", i, lost, sr.Code, sr.Error)
				}
			}
			st := rt.Stats()
			if st.DeadBackends != 1 {
				t.Errorf("deadBackends = %d, want 1", st.DeadBackends)
			}
			if tc.breakerUp && st.Sends["b0"] != 0 {
				t.Errorf("sends to the open-breaker owner = %d, want 0", st.Sends["b0"])
			}
		})
	}
}

// The router reads every graph transport the service does, by the same
// Content-Type rules: one graph interned as JSON, DIMACS text and a
// binary frame gets one graphRef at one owner (the second and third
// intern report reinterned), and a binary solve lands on that owner.
func TestRouterGraphTransports(t *testing.T) {
	rt, servers, _ := newTestCluster(t, 3, 11, false)
	g := graph.RandomSmallDiameter(rng.New(3), 16, 3, 0.3)
	jsonBody, _ := json.Marshal(g)
	var dimacs bytes.Buffer
	if err := graph.Write(&dimacs, g); err != nil {
		t.Fatal(err)
	}
	frame := graph.AppendBinary(nil, g)
	internVia := func(h http.Handler, contentType string, body []byte) service.GraphsResponse {
		t.Helper()
		resp, rb := doRequest(t, h, http.MethodPost, "/v1/graphs", contentType, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("intern as %s: status %d: %s", contentType, resp.StatusCode, rb)
		}
		var gr service.GraphsResponse
		if err := json.Unmarshal(rb, &gr); err != nil {
			t.Fatal(err)
		}
		return gr
	}
	ref := internVia(rt, "application/json", jsonBody).GraphRef
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{
		{"text/plain", dimacs.Bytes()},
		{graph.BinaryContentType, frame},
	} {
		if gr := internVia(rt, tc.contentType, tc.body); gr.GraphRef != ref || !gr.Reinterned {
			t.Errorf("intern as %s: ref %s reinterned %v, want %s reinterned", tc.contentType, gr.GraphRef, gr.Reinterned, ref)
		}
	}
	owner := rt.Ring().Owner(ref)
	if got := rt.Stats().PerBackend[owner]; got != 3 {
		t.Errorf("owner %s handled %d interns, want 3", owner, got)
	}

	solve := append(append([]byte{}, frame...), `{"p":[2,1]}`...)
	resp, rb := doRequest(t, rt, http.MethodPost, "/v1/solve", graph.BinaryContentType, solve)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary solve via router: status %d: %s", resp.StatusCode, rb)
	}
	for name, c := range rt.Stats().PerBackend {
		want := int64(0)
		if name == owner {
			want = 4
		}
		if c != want {
			t.Errorf("backend %s handled %d requests, want %d (owner %s)", name, c, want, owner)
		}
	}

	// A media type that merely starts like the binary one is not it: a
	// JSON graph sent as application/x-lpl-graphs is JSON to a node and
	// to the router alike.
	for _, h := range []http.Handler{servers[0], rt} {
		if gr := internVia(h, graph.BinaryContentType+"s", jsonBody); gr.GraphRef != ref {
			t.Errorf("JSON body as %ss: ref %s, want %s", graph.BinaryContentType, gr.GraphRef, ref)
		}
	}
}

func TestWithPprofGatesDebugHandlers(t *testing.T) {
	rt, _, _ := newTestCluster(t, 1, 1, false)
	// Bare router: no debug surface.
	req, _ := http.NewRequest(http.MethodGet, "http://cluster/debug/pprof/", nil)
	resp, err := HandlerDoer{Handler: rt}.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("/debug/pprof/ served without the -pprof gate")
	}
	// Wrapped: the index answers, the app routes still work.
	wrapped := WithPprof(rt)
	resp, err = HandlerDoer{Handler: wrapped}.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ behind WithPprof: status %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodGet, "http://cluster/healthz", nil)
	resp, err = HandlerDoer{Handler: wrapped}.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz through WithPprof: status %d", resp.StatusCode)
	}
}
