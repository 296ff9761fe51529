package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lpltsp/internal/core"
	"lpltsp/internal/fault"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
)

// ---------------------------------------------------------------------------
// harness

// svcLeakMethod ignores its context and sleeps — the service-level twin
// of core's watchdog bait, pinned explicitly like every test method.
type svcLeakMethod struct{}

const svcLeakName core.MethodName = "test-svc-leak"

var svcLeakSleep atomic.Int64 // nanoseconds

func (svcLeakMethod) Name() core.MethodName { return svcLeakName }

func (svcLeakMethod) Check(pr *core.Probe, p labeling.Vector, opts *core.Options) core.Applicability {
	if opts == nil || opts.Method != svcLeakName {
		return core.Applicability{Reason: "test method; pin it explicitly"}
	}
	return core.Applicability{OK: true, Cost: 1, Reason: "test leak"}
}

func (svcLeakMethod) Solve(ctx context.Context, pr *core.Probe, p labeling.Vector, opts *core.Options) (*core.Result, error) {
	time.Sleep(time.Duration(svcLeakSleep.Load())) // deliberately ignores ctx
	lab, span, err := labeling.GreedyFirstFit(pr.G, p, labeling.OrderDegree)
	if err != nil {
		return nil, err
	}
	return &core.Result{Labeling: lab, Span: span, Method: svcLeakName}, nil
}

var registerSvcLeakOnce sync.Once

func registerSvcLeak() {
	registerSvcLeakOnce.Do(func() { core.RegisterMethod(svcLeakMethod{}) })
}

// postSolve posts one solve request and decodes the JSON response.
func postSolve(t *testing.T, base string, req SolveRequest) (int, SolveResponse) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/solve", req)
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("response not JSON (%d): %s", resp.StatusCode, body)
	}
	return resp.StatusCode, sr
}

func getReady(t *testing.T, base string) (int, ReadyResponse) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/readyz Cache-Control = %q, want no-store", cc)
	}
	var rr ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rr
}

// ---------------------------------------------------------------------------
// panic containment over HTTP

func TestEnginePanicOverHTTP(t *testing.T) {
	ts := newTestServer(t, nil)

	fault.Enable(fault.Plan{Seed: 1, Rate: 1, Sites: []string{fault.SiteCoreMethod}, Kinds: []fault.Kind{fault.KindPanic}})
	req := solveReq("boom", graph.Cycle(5), labeling.L21())
	status, sr := postSolve(t, ts.URL, req)
	fault.Disable()
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%+v)", status, sr)
	}
	if sr.Code != "enginePanic" || sr.Error == "" {
		t.Fatalf("response code %q error %q, want enginePanic", sr.Code, sr.Error)
	}

	// The process (and the server) must shrug it off: the same instance
	// solves cleanly once the fault plan is gone — panics are not cached.
	status, sr = postSolve(t, ts.URL, req)
	if status != http.StatusOK || sr.Error != "" {
		t.Fatalf("post-panic solve: status %d, %+v", status, sr)
	}

	st := getStats(t, ts.URL)
	if st.Fault.EnginePanics != 1 {
		t.Fatalf("stats enginePanics = %d, want 1", st.Fault.EnginePanics)
	}
	if !st.Fault.Quarantine.Enabled || st.Fault.Quarantine.Tracked < 1 {
		t.Fatalf("quarantine not tracking the failure: %+v", st.Fault.Quarantine)
	}
	if len(st.Fault.PanicsByMethod) == 0 {
		t.Fatalf("panicsByMethod empty: %+v", st.Fault)
	}
}

func TestHandlerPanicBoundary(t *testing.T) {
	ts := newTestServer(t, nil)

	fault.Enable(fault.Plan{Seed: 2, Rate: 1, Sites: []string{fault.SiteServiceSolve}, Kinds: []fault.Kind{fault.KindPanic}})
	status, sr := postSolve(t, ts.URL, solveReq("h", graph.Path(4), labeling.L21()))
	fault.Disable()
	if status != http.StatusInternalServerError || sr.Code != "panic" {
		t.Fatalf("status %d code %q, want 500/panic (%+v)", status, sr.Code, sr)
	}

	// The admission gauges must have been rolled back on the way out.
	eventually(t, "gauges drained after handler panic", func() bool {
		st := getStats(t, ts.URL)
		return st.Queued == 0 && st.InFlight == 0
	})
	if st := getStats(t, ts.URL); st.Fault.HandlerPanics != 1 {
		t.Fatalf("handlerPanics = %d, want 1", st.Fault.HandlerPanics)
	}
	if status, sr := postSolve(t, ts.URL, solveReq("ok", graph.Path(4), labeling.L21())); status != http.StatusOK || sr.Error != "" {
		t.Fatalf("server wedged after handler panic: %d %+v", status, sr)
	}
}

// ---------------------------------------------------------------------------
// quarantine

func TestQuarantineTripsAndExpires(t *testing.T) {
	ts := newTestServer(t, &Config{QuarantineThreshold: 2, QuarantineTTL: 300 * time.Millisecond})

	fault.Enable(fault.Plan{Seed: 3, Rate: 1, Sites: []string{fault.SiteCoreMethod}, Kinds: []fault.Kind{fault.KindPanic}})
	poison := solveReq("poison", graph.Cycle(6), labeling.L21())
	for i := 0; i < 2; i++ {
		status, sr := postSolve(t, ts.URL, poison)
		if status != http.StatusInternalServerError || sr.Code != "enginePanic" {
			fault.Disable()
			t.Fatalf("failure %d: status %d code %q", i, status, sr.Code)
		}
	}
	// Threshold reached: identical requests now fail fast without ever
	// touching the solver (the injection plan is still armed — a solve
	// attempt would 500, not 422).
	status, sr := postSolve(t, ts.URL, poison)
	if status != http.StatusUnprocessableEntity || sr.Code != "quarantined" {
		fault.Disable()
		t.Fatalf("quarantined request: status %d code %q (%s)", status, sr.Code, sr.Error)
	}
	// A batch naming the poison item is rejected whole, before admission.
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: []SolveRequest{poison}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		fault.Disable()
		t.Fatalf("batch with poison item: status %d (%s)", resp.StatusCode, body)
	}
	fault.Disable()

	// A different instance is a different key: it solves fine right now.
	if status, sr := postSolve(t, ts.URL, solveReq("fine", graph.Path(5), labeling.L21())); status != http.StatusOK {
		t.Fatalf("unrelated instance: status %d (%+v)", status, sr)
	}

	st := getStats(t, ts.URL)
	if st.Fault.Quarantine.Trips < 1 || st.Fault.Quarantine.FastFails < 2 {
		t.Fatalf("quarantine stats: %+v", st.Fault.Quarantine)
	}

	// After the TTL the sentence is served and the instance gets a fresh
	// chance — and with the fault plan gone, it succeeds.
	time.Sleep(400 * time.Millisecond)
	eventually(t, "quarantine expiry", func() bool {
		status, _ := postSolve(t, ts.URL, poison)
		return status == http.StatusOK
	})
}

func TestQuarantineDisabled(t *testing.T) {
	ts := newTestServer(t, &Config{QuarantineThreshold: -1})

	fault.Enable(fault.Plan{Seed: 4, Rate: 1, Sites: []string{fault.SiteCoreMethod}, Kinds: []fault.Kind{fault.KindPanic}})
	defer fault.Disable()
	req := solveReq("p", graph.Cycle(7), labeling.L21())
	// However often it fails, it is never fast-failed: every request gets
	// a real (panicking) solve and a 500.
	for i := 0; i < 5; i++ {
		status, sr := postSolve(t, ts.URL, req)
		if status != http.StatusInternalServerError || sr.Code != "enginePanic" {
			t.Fatalf("attempt %d: status %d code %q", i, status, sr.Code)
		}
	}
	if st := getStats(t, ts.URL); st.Fault.Quarantine.Enabled {
		t.Fatalf("quarantine reported enabled: %+v", st.Fault.Quarantine)
	}
}

// ---------------------------------------------------------------------------
// watchdog over HTTP

func TestWatchdogStuckSolveOverHTTP(t *testing.T) {
	registerSvcLeak()
	ts := newTestServer(t, &Config{
		WatchdogGrace:       2,
		QuarantineThreshold: 1,
		QuarantineTTL:       300 * time.Millisecond,
	})

	svcLeakSleep.Store(int64(3 * time.Second))
	defer svcLeakSleep.Store(0)
	req := SolveRequest{
		ID: "stuck", Graph: graph.Cycle(8), P: labeling.L21(),
		Options: &WireOptions{Method: string(svcLeakName), DeadlineMs: 100},
	}
	start := time.Now()
	status, sr := postSolve(t, ts.URL, req)
	if status != http.StatusRequestTimeout || sr.Code != "stuckSolve" {
		t.Fatalf("status %d code %q (%s), want 408/stuckSolve", status, sr.Code, sr.Error)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("watchdog kill took %v; client waited for the leak", elapsed)
	}

	// One kill is the threshold: the identical instance is now poison.
	if status, sr := postSolve(t, ts.URL, req); status != http.StatusUnprocessableEntity || sr.Code != "quarantined" {
		t.Fatalf("post-kill request: status %d code %q", status, sr.Code)
	}

	st := getStats(t, ts.URL)
	if st.Fault.StuckSolves != 1 || st.Fault.WatchdogKills != 1 {
		t.Fatalf("fault stats: %+v", st.Fault)
	}

	// Sentence served + method healed → the same instance solves.
	svcLeakSleep.Store(0)
	time.Sleep(400 * time.Millisecond)
	healed := req
	healed.Options = &WireOptions{Method: string(svcLeakName), DeadlineMs: 5000}
	eventually(t, "healed instance accepted", func() bool {
		status, sr := postSolve(t, ts.URL, healed)
		return status == http.StatusOK && sr.Method == string(svcLeakName)
	})
}

// TestServersKeepOwnState boots two servers in one process, each with
// its own cache, and drives traffic and faults at one of them only: the
// other's /v1/stats must show none of it.
func TestServersKeepOwnState(t *testing.T) {
	registerSvcLeak()
	cfg := &Config{WatchdogGrace: 2}
	a, b := newTestServer(t, cfg), newTestServer(t, cfg)

	for _, g := range []*graph.Graph{graph.Cycle(5), graph.Cycle(5), graph.Path(6)} {
		if status, sr := postSolve(t, a.URL, solveReq("x", g, labeling.L21())); status != http.StatusOK {
			t.Fatalf("solve on A: status %d (%s)", status, sr.Error)
		}
	}
	sumMethods := func(st StatsResponse) int64 {
		var n int64
		for _, v := range st.Methods {
			n += v
		}
		return n
	}
	sa, sb := getStats(t, a.URL), getStats(t, b.URL)
	if n := sumMethods(sa); n != 3 || sa.Solved != 3 || sa.Cache.Hits != 1 {
		t.Fatalf("A: Σ methods %d, solved %d, cache hits %d; want 3, 3, 1 (%v)", n, sa.Solved, sa.Cache.Hits, sa.Methods)
	}
	if len(sb.Methods) != 0 || sb.Solved != 0 || sb.Cache.Hits+sb.Cache.Misses != 0 {
		t.Fatalf("B served nothing but reports methods %v, solved %d, cache %+v", sb.Methods, sb.Solved, sb.Cache)
	}

	// An engine panic and a watchdog kill on A.
	fault.Enable(fault.Plan{Seed: 5, Rate: 1, Sites: []string{fault.SiteCoreMethod}, Kinds: []fault.Kind{fault.KindPanic}})
	status, sr := postSolve(t, a.URL, solveReq("boom", graph.Cycle(7), labeling.L21()))
	fault.Disable()
	if status != http.StatusInternalServerError || sr.Code != "enginePanic" {
		t.Fatalf("panic on A: status %d code %q (%s)", status, sr.Code, sr.Error)
	}
	svcLeakSleep.Store(int64(time.Second))
	defer svcLeakSleep.Store(0)
	stuck := SolveRequest{ID: "stuck", Graph: graph.Cycle(8), P: labeling.L21(),
		Options: &WireOptions{Method: string(svcLeakName), DeadlineMs: 100}}
	if status, sr := postSolve(t, a.URL, stuck); status != http.StatusRequestTimeout || sr.Code != "stuckSolve" {
		t.Fatalf("stuck solve on A: status %d code %q (%s)", status, sr.Code, sr.Error)
	}

	fa, fb := getStats(t, a.URL).Fault, getStats(t, b.URL).Fault
	if fa.EnginePanics != 1 || len(fa.PanicsByMethod) == 0 || fa.StuckSolves != 1 || fa.WatchdogKills != 1 {
		t.Fatalf("A's fault block %+v, want one panic and one kill", fa)
	}
	if fb.EnginePanics != 0 || len(fb.PanicsByMethod) != 0 || fb.StuckSolves != 0 || fb.WatchdogKills != 0 {
		t.Fatalf("B's fault block %+v shows A's faults", fb)
	}
}

// ---------------------------------------------------------------------------
// readiness

func TestReadyzQueueSaturation(t *testing.T) {
	release := resetBlock()
	defer release()
	ts := newTestServer(t, &Config{Workers: 1, QueueDepth: 4, ReadyHighWater: 0.5})

	if status, rr := getReady(t, ts.URL); status != http.StatusOK || !rr.Ready {
		t.Fatalf("idle server not ready: %d %+v", status, rr)
	}

	// Two parked jobs reach the high water (ceil(0.5×4) = 2).
	opts := &WireOptions{Method: string(blockName), NoCache: true}
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		req := SolveRequest{ID: fmt.Sprintf("b-%d", i), Graph: graph.Path(3 + i), P: labeling.L21(), Options: opts}
		go func() {
			postJSON(t, ts.URL+"/v1/solve", req)
			done <- struct{}{}
		}()
	}
	eventually(t, "readyz flips to 503", func() bool {
		status, rr := getReady(t, ts.URL)
		return status == http.StatusServiceUnavailable && !rr.Ready && strings.Contains(rr.Reason, "saturated")
	})
	if st := getStats(t, ts.URL); st.Ready {
		t.Fatal("stats.ready true while /readyz reports 503")
	}

	release()
	<-done
	<-done
	eventually(t, "readyz recovers", func() bool {
		status, rr := getReady(t, ts.URL)
		return status == http.StatusOK && rr.Ready && rr.Reason == ""
	})
}

func TestReadyzQuarantineTrips(t *testing.T) {
	ts := newTestServer(t, &Config{QuarantineThreshold: 1, ReadyMaxTrips: 1})

	fault.Enable(fault.Plan{Seed: 5, Rate: 1, Sites: []string{fault.SiteCoreMethod}, Kinds: []fault.Kind{fault.KindPanic}})
	postSolve(t, ts.URL, solveReq("trip", graph.Cycle(9), labeling.L21()))
	fault.Disable()

	status, rr := getReady(t, ts.URL)
	if status != http.StatusServiceUnavailable || !strings.Contains(rr.Reason, "quarantine") {
		t.Fatalf("readyz after a trip: %d %+v", status, rr)
	}
	if st := getStats(t, ts.URL); st.Fault.Quarantine.RecentTrips < 1 {
		t.Fatalf("recentTrips = %d, want ≥ 1", st.Fault.Quarantine.RecentTrips)
	}
}

// ---------------------------------------------------------------------------
// Retry-After from the drain rate

func TestRetryAfterColdStart(t *testing.T) {
	// Regression: before the drain-schedule rewrite, a server with queued
	// jobs but zero EWMA observations computed the hint from uninitialized
	// state. Cold start must always yield the clamp floor.
	s := NewServer(&Config{Workers: 2, QueueDepth: 64})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("empty cold server: Retry-After %d, want the floor 1", got)
	}
	jobs, err := s.sched.admit("", make([]jobSpec, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("occupied but no observations: Retry-After %d, want the floor 1", got)
	}
	for _, j := range jobs {
		s.sched.finish(j)
	}
}

func TestRetryAfterComputed(t *testing.T) {
	s := NewServer(&Config{Workers: 2, QueueDepth: 2048})
	s.ewmaNs.Store(int64(3 * time.Second))
	jobs, err := s.sched.admit("", make([]jobSpec, 10))
	if err != nil {
		t.Fatal(err)
	}
	// 10 jobs with no prediction fall back to the 3s EWMA; the sum drains
	// across 2 workers → 15s.
	if got := s.retryAfterSeconds(); got != 15 {
		t.Fatalf("Retry-After %d, want 15", got)
	}
	more, err := s.sched.admit("", make([]jobSpec, 990))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfterSeconds(); got != 30 {
		t.Fatalf("Retry-After %d, want clamp at 30", got)
	}
	for _, j := range append(jobs, more...) {
		s.sched.finish(j)
	}
	// A learned per-job prediction overrides the EWMA fallback.
	pj, err := s.sched.admit("", []jobSpec{{predNs: int64(10 * time.Second)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfterSeconds(); got != 5 {
		t.Fatalf("Retry-After %d, want 5 (10s prediction over 2 workers)", got)
	}
	s.sched.finish(pj[0])
	s.ewmaNs.Store(int64(time.Microsecond))
	if _, err := s.sched.admit("", make([]jobSpec, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("Retry-After %d, want floor of 1", got)
	}
}

func TestObserveServiceTimeEWMA(t *testing.T) {
	s := NewServer(nil)
	s.observeServiceTime(800 * time.Millisecond)
	if got := s.ewmaNs.Load(); got != int64(800*time.Millisecond) {
		t.Fatalf("first observation %d, want raw value", got)
	}
	s.observeServiceTime(0) // clamps to 1ns, still moves the average down
	if got := s.ewmaNs.Load(); got >= int64(800*time.Millisecond) || got <= 0 {
		t.Fatalf("EWMA did not decay: %d", got)
	}
}

// errorReply is the one status/code table: each kind maps to what the
// handlers served before it existed, bare or wrapped the way the
// scheduler and the solver return it.
func TestErrorReply(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{errQueueFull, http.StatusTooManyRequests, ""},
		{errTenantQuota, http.StatusTooManyRequests, codeTenantQuota},
		{errInfeasible, http.StatusTooManyRequests, codeInfeasible},
		{errShed, http.StatusTooManyRequests, codeShed},
		{context.Canceled, http.StatusRequestTimeout, ""},
		{context.DeadlineExceeded, http.StatusRequestTimeout, ""},
		{core.ErrSolveStuck, http.StatusRequestTimeout, codeStuckSolve},
		{core.ErrEnginePanic, http.StatusInternalServerError, codeEnginePanic},
		{core.ErrDisconnected, http.StatusUnprocessableEntity, ""},
		{core.ErrDiameterExceedsK, http.StatusUnprocessableEntity, ""},
		{core.ErrConditionViolated, http.StatusUnprocessableEntity, ""},
		{core.ErrMethodNotApplicable, http.StatusUnprocessableEntity, ""},
		{errors.New("plain"), http.StatusInternalServerError, ""},
	} {
		for _, err := range []error{tc.err, fmt.Errorf("wrapped: %w", tc.err)} {
			if status, code := errorReply(err); status != tc.status || code != tc.code {
				t.Errorf("errorReply(%v) = %d %q, want %d %q", err, status, code, tc.status, tc.code)
			}
		}
	}
}

// TestRetryAfterOn429IsInteger: all four kinds of 429 — queue full,
// tenant quota, infeasible at admission and shed while queued — carry
// their code and an integral Retry-After in [1,30].
func TestRetryAfterOn429IsInteger(t *testing.T) {
	hold := SolveRequest{ID: "hold", Graph: graph.Path(3), P: labeling.L21(),
		Options: &WireOptions{Method: string(blockName), NoCache: true}}
	bounce := solveReq("bounce", graph.Path(7), labeling.L21())
	// late names a deadline the warmed cost model says it cannot meet.
	late := SolveRequest{ID: "late", Graph: graph.Path(7), P: labeling.L21(), Options: &WireOptions{DeadlineMs: 5000}}
	for _, tc := range []struct {
		name, tenant, code string
		depth              int
		req                SolveRequest
	}{
		{"queueFull", "", "", 1, bounce},
		{"tenantQuota", "t", codeTenantQuota, 1, bounce},
		{"infeasible", "", codeInfeasible, 1, late},
		{"shed", "", codeShed, 2, late},
	} {
		t.Run(tc.name, func(t *testing.T) {
			registerBlockOnce.Do(func() { core.RegisterMethod(blockMethod{}) })
			s := NewServer(&Config{Workers: 1, QueueDepth: tc.depth})
			var wg sync.WaitGroup
			defer wg.Wait()
			release := resetBlock()
			defer release()
			// Every Path(7) solve takes an hour, says the model.
			for i := 0; i < 16; i++ {
				s.costs.Observe(core.CostServiceKey, 7, 6, 0, 2, time.Hour)
			}
			send := func(tenant string, req SolveRequest) <-chan *httptest.ResponseRecorder {
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				hr := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
				hr.Header.Set(TenantHeader, tenant)
				ch := make(chan *httptest.ResponseRecorder, 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, hr)
					ch <- rec
				}()
				return ch
			}
			// Tenant t holds the one worker.
			send("t", hold)
			eventually(t, "worker held", func() bool { return s.sched.inFlight.Load() == 1 })
			got := send(tc.tenant, tc.req)
			if tc.code == codeShed {
				// late took the free queue slot; a feasible arrival finds
				// the queue full and sheds it.
				eventually(t, "late queued", func() bool { return s.admitted.Load() == 2 })
				send("", solveReq("arrival", graph.Path(5), labeling.L21()))
			}
			rec := <-got
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status %d (%s)", rec.Code, rec.Body)
			}
			var rej SolveResponse
			mustUnmarshal(t, rec.Body.Bytes(), &rej)
			if rej.Code != tc.code {
				t.Fatalf("code %q, want %q", rej.Code, tc.code)
			}
			var secs int
			if _, err := fmt.Sscanf(rec.Header().Get("Retry-After"), "%d", &secs); err != nil || secs < 1 || secs > 30 {
				t.Fatalf("Retry-After %q not an integer in [1,30]", rec.Header().Get("Retry-After"))
			}
		})
	}
}

// ---------------------------------------------------------------------------
// malformed transports: truncated frames and body limits

func TestTruncatedBinaryFrames(t *testing.T) {
	ts := newTestServer(t, nil)
	frame := graph.AppendBinary(nil, graph.Cycle(12))
	cuts := []int{0, 1, 2, len(frame) / 2, len(frame) - 1}
	for _, cut := range cuts {
		for _, path := range []string{"/v1/graphs", "/v1/solve"} {
			resp, body := postRaw(t, ts.URL+path, graph.BinaryContentType, frame[:cut])
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with %d/%d frame bytes: status %d (%s)", path, cut, len(frame), resp.StatusCode, body)
				continue
			}
			var sr SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil || sr.Error == "" {
				t.Errorf("%s truncated at %d: error body missing: %s", path, cut, body)
			}
		}
	}
	// A full frame with a truncated JSON envelope after it must 400 too.
	resp, body := postRaw(t, ts.URL+"/v1/solve", graph.BinaryContentType, append(append([]byte{}, frame...), `{"p":[2,`...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated envelope: status %d (%s)", resp.StatusCode, body)
	}
}

func TestBodyLimitsAndTruncatedJSON(t *testing.T) {
	ts := newTestServer(t, &Config{MaxBodyBytes: 512})
	huge := strings.Repeat("x", 600)

	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/solve", `{"id":"` + huge + `","graph":{"n":2,"edges":[[0,1]]},"p":[2,1]}`, http.StatusRequestEntityTooLarge},
		{"/v1/batch", `{"items":[{"id":"` + huge + `","graph":{"n":2,"edges":[[0,1]]},"p":[2,1]}]}`, http.StatusRequestEntityTooLarge},
		{"/v1/graphs", `{"n":2,"edges":[[0,1]],"pad":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/solve", `{"graph":{"n":2,`, http.StatusBadRequest},
		{"/v1/batch", `{"items":[{"graph":`, http.StatusBadRequest},
		{"/v1/graphs", `{"n":2,"edges":[[0,`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s (%d bytes): status %d, want %d (%s)", tc.path, len(tc.body), resp.StatusCode, tc.status, data)
			continue
		}
		var sr SolveResponse
		if err := json.Unmarshal(data, &sr); err != nil || sr.Error == "" {
			t.Errorf("%s: error body missing: %s", tc.path, data)
		}
	}
}

// ---------------------------------------------------------------------------
// header hygiene

func TestNoStoreOnHealthAndStats(t *testing.T) {
	ts := newTestServer(t, nil)
	for _, path := range []string{"/healthz", "/v1/stats", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", path, cc)
		}
	}
}
