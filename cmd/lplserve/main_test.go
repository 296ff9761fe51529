package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBuildServerDefaults(t *testing.T) {
	srv, logger, err := buildServer(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr != ":8080" || srv.Handler == nil || logger == nil {
		t.Fatalf("defaults: addr=%q handler=%v", srv.Addr, srv.Handler)
	}
}

func TestBuildServerFlagErrors(t *testing.T) {
	if _, _, err := buildServer([]string{"-nope"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, _, err := buildServer([]string{"stray"}, io.Discard); err == nil {
		t.Fatal("stray argument accepted")
	}
	// -h is a successful help request, not a flag error (main exits 0).
	if _, _, err := buildServer([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestServerEndToEnd drives the assembled handler exactly as a client
// would: health check, one solve, and the stats that recorded it.
func TestServerEndToEnd(t *testing.T) {
	srv, _, err := buildServer(
		[]string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "8", "-max-deadline", "5s"},
		io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]},"p":[2,1]}`
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d (%s)", resp.StatusCode, data)
	}
	var sr struct {
		Span  int  `json:"span"`
		Exact bool `json:"exact"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Span != 4 || !sr.Exact { // λ_{2,1}(C4) = 4
		t.Fatalf("C4 solve: %+v (%s)", sr, data)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Solved   int64 `json:"solved"`
			InFlight int64 `json:"inFlight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Solved >= 1 && st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never recorded the solve: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultFlagsAndReadyz: the fault-containment flags parse and the
// assembled handler exposes the readiness endpoint distinct from
// liveness.
func TestFaultFlagsAndReadyz(t *testing.T) {
	srv, _, err := buildServer(
		[]string{"-addr", "127.0.0.1:0", "-quarantine", "2", "-quarantine-ttl", "90s", "-watchdog-grace", "2.5"},
		io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on an idle server: %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("readyz Cache-Control = %q, want no-store", cc)
	}
	var rr struct {
		Ready bool `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil || !rr.Ready {
		t.Fatalf("readyz body: ready=%v err=%v", rr.Ready, err)
	}

	// The stats fault block reflects the flag-configured quarantine.
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st struct {
		Ready bool `json:"ready"`
		Fault struct {
			Quarantine struct {
				Enabled   bool `json:"enabled"`
				Threshold int  `json:"threshold"`
			} `json:"quarantine"`
		} `json:"fault"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || !st.Fault.Quarantine.Enabled || st.Fault.Quarantine.Threshold != 2 {
		t.Fatalf("stats fault block: %+v", st)
	}

	// A disabled quarantine reports as such.
	srv2, _, err := buildServer([]string{"-addr", "127.0.0.1:0", "-quarantine", "-1", "-watchdog-grace", "0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler)
	defer ts2.Close()
	resp3, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fault.Quarantine.Enabled {
		t.Fatalf("quarantine enabled despite -quarantine -1: %+v", st)
	}
}

// The cluster node flags assemble a serving handler and reject the
// incoherent combinations.
func TestClusterModeFlags(t *testing.T) {
	// Node mode without its pair, or with a self outside the ring — all errors.
	for _, args := range [][]string{
		{"-peers", "b0=http://127.0.0.1:1"},                   // -peers without -self
		{"-self", "b0"},                                       // -self without -peers
		{"-self", "ghost", "-peers", "b0=http://127.0.0.1:1"}, // self not a member
	} {
		if _, _, err := buildServer(args, io.Discard); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}

	// A well-formed node mode: self is one of the peers.
	srv, _, err := buildServer(
		[]string{"-addr", "127.0.0.1:0", "-self", "b0",
			"-peers", "b0=http://127.0.0.1:1,b1=http://127.0.0.1:2", "-seed", "7"},
		io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz in node mode: %d", resp.StatusCode)
	}
}

// -pprof gates the debug handlers on and off.
func TestServePprofFlag(t *testing.T) {
	srv, _, err := buildServer([]string{"-addr", "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("/debug/pprof/ exposed without -pprof")
	}

	srv2, _, err := buildServer([]string{"-addr", "127.0.0.1:0", "-pprof"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ behind -pprof: %d", resp.StatusCode)
	}
}
