package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
)

// ---------------------------------------------------------------------------
// The cluster-facing API surface: HEAD /v1/graphs/{ref}, the binary
// result-frame transport, per-server cache isolation.

func TestGraphHeadProbe(t *testing.T) {
	ts := newTestServer(t, nil)
	g := graph.Cycle(6)
	gr := internGraph(t, ts.URL, g)

	resp, err := http.Head(ts.URL + "/v1/graphs/" + gr.GraphRef)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD interned ref: status %d", resp.StatusCode)
	}
	if n := resp.Header.Get("X-Lpl-N"); n != fmt.Sprint(g.N()) {
		t.Errorf("X-Lpl-N = %q, want %d", n, g.N())
	}
	if m := resp.Header.Get("X-Lpl-M"); m != fmt.Sprint(g.M()) {
		t.Errorf("X-Lpl-M = %q, want %d", m, g.M())
	}

	// Unknown (but well-formed) ref → 404; malformed → 400.
	resp, err = http.Head(ts.URL + "/v1/graphs/" + "00000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("HEAD unknown ref: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Head(ts.URL + "/v1/graphs/not-a-ref")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("HEAD malformed ref: status %d, want 400", resp.StatusCode)
	}
}

// Accept negotiation is by media type, not exact string match: lists
// and quality parameters still select the binary frame, and unrelated
// Accept values still get JSON.
func TestAcceptsResultFrame(t *testing.T) {
	for _, tc := range []struct {
		accept string
		want   bool
	}{
		{core.ResultContentType, true},
		{core.ResultContentType + ", application/json", true},
		{"application/json, " + core.ResultContentType + ";q=0.9", true},
		{"Application/X-LPL-Result", true},
		{"application/json", false},
		{core.ResultContentType + "x", false},
		{"", false},
	} {
		r, _ := http.NewRequest(http.MethodPost, "http://x/v1/solve", nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		if got := acceptsResultFrame(r); got != tc.want {
			t.Errorf("acceptsResultFrame(Accept: %q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

func TestSolveResultFrameTransport(t *testing.T) {
	ts := newTestServer(t, nil)
	g := graph.Cycle(7)
	body, err := json.Marshal(SolveRequest{Graph: g, P: labeling.Vector{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", core.ResultContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame solve: status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != core.ResultContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, core.ResultContentType)
	}
	res, rest, err := core.DecodeResultFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after frame", len(rest))
	}
	if len(res.Labeling) != g.N() {
		t.Fatalf("frame labeling has %d entries, want %d", len(res.Labeling), g.N())
	}

	// The same solve over JSON must agree with the frame.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jr SolveResponse
	err = json.NewDecoder(resp2.Body).Decode(&jr)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if jr.Span != res.Span {
		t.Errorf("JSON span %d != frame span %d", jr.Span, res.Span)
	}
	if !jr.CacheHit {
		t.Error("repeat solve not a cache hit — frame result was not cached")
	}
}

// Two servers given their own core.SolveCache instances must not share
// cache state — the property the in-process cluster harness builds on.
func TestConfigCacheIsolation(t *testing.T) {
	ca, cb := core.NewSolveCache(64), core.NewSolveCache(64)
	a := newTestServer(t, &Config{Cache: ca})
	b := newTestServer(t, &Config{Cache: cb})

	g := graph.Cycle(9)
	body, _ := json.Marshal(SolveRequest{Graph: g, P: labeling.Vector{2, 2, 1}})
	for _, ts := range []string{a.URL, b.URL, a.URL} {
		resp, data := postRaw(t, ts+"/v1/solve", "application/json", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d %s", resp.StatusCode, data)
		}
	}
	if st := ca.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("server A cache: %+v, want 1 miss + 1 hit", st)
	}
	if st := cb.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("server B cache: %+v, want exactly 1 isolated miss", st)
	}
	// /v1/stats on a server handed a cache reports that instance.
	resp, err := http.Get(b.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %v", resp.StatusCode, err)
	}
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 0 {
		t.Errorf("/v1/stats cache block %+v does not match the isolated instance", st.Cache)
	}
}
