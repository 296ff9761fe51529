package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scriptDoer answers every request with a fixed status (and optional
// header), after an optional context-honoring delay, counting hits.
type scriptDoer struct {
	status int
	header http.Header
	delay  time.Duration
	hits   atomic.Int64
}

func (d *scriptDoer) Do(req *http.Request) (*http.Response, error) {
	d.hits.Add(1)
	if d.delay > 0 {
		t := time.NewTimer(d.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	h := http.Header{"Content-Type": []string{"application/json"}}
	for k, vs := range d.header {
		h[k] = vs
	}
	body := fmt.Sprintf(`{"error":"scripted status %d","code":"test"}`, d.status)
	if d.status == http.StatusOK {
		body = `{"id":"ok","span":4,"labeling":[0,2,4,6]}`
	}
	return &http.Response{
		StatusCode: d.status,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}, nil
}

// stallDoer blocks until the request context gives up.
type stallDoer struct{ hits atomic.Int64 }

func (d *stallDoer) Do(req *http.Request) (*http.Response, error) {
	d.hits.Add(1)
	<-req.Context().Done()
	return nil, req.Context().Err()
}

var solveBody = []byte(`{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]},"p":[2,1]}`)

// scriptedRouter builds a 3-backend router whose every transport is the
// same scripted doer set by name; returns the router and the doers.
func scriptedRouter(t *testing.T, mk func(name string) Doer) *Router {
	t.Helper()
	backends := []Backend{
		{Name: "b0", Doer: mk("b0")},
		{Name: "b1", Doer: mk("b1")},
		{Name: "b2", Doer: mk("b2")},
	}
	rt, err := NewRouter(backends, RingConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestTerminalStatusNeverRetried pins the satellite contract: 429, 422,
// and 408 are application-level answers — exactly one backend is
// consulted and the status plus its headers (Retry-After!) reach the
// client untouched, never a successor.
func TestTerminalStatusNeverRetried(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusUnprocessableEntity, http.StatusRequestTimeout} {
		t.Run(fmt.Sprintf("status%d", status), func(t *testing.T) {
			doers := map[string]*scriptDoer{}
			rt := scriptedRouter(t, func(name string) Doer {
				d := &scriptDoer{status: status}
				if status == http.StatusTooManyRequests {
					d.header = http.Header{"Retry-After": []string{"7"}}
				}
				doers[name] = d
				return d
			})
			rt.ConfigureRetry(RetryPolicy{MaxAttempts: 3, BudgetRatio: 1})

			resp, _ := doJSON(t, rt, http.MethodPost, "/v1/solve", solveBody)
			if resp.StatusCode != status {
				t.Fatalf("status = %d, want %d relayed untouched", resp.StatusCode, status)
			}
			if status == http.StatusTooManyRequests {
				if got := resp.Header.Get("Retry-After"); got != "7" {
					t.Fatalf("Retry-After = %q, want preserved %q", got, "7")
				}
			}
			var total int64
			for _, d := range doers {
				total += d.hits.Load()
			}
			if total != 1 {
				t.Fatalf("%d backends consulted for a terminal %d, want exactly 1", total, status)
			}
			if st := rt.Stats(); st.Retries != 0 {
				t.Fatalf("router counted %d retries for a terminal status", st.Retries)
			}
		})
	}
}

// TestGatewayStatusRetried: 503 (an injected flaky link, a nested
// router) IS a transport-class failure and moves to the successor.
func TestGatewayStatusRetried(t *testing.T) {
	doers := map[string]*scriptDoer{}
	rt := scriptedRouter(t, func(name string) Doer {
		d := &scriptDoer{status: http.StatusOK}
		doers[name] = d
		return d
	})
	rt.ConfigureRetry(RetryPolicy{MaxAttempts: 3, BudgetRatio: 1})
	// The owner answers 503; the successor keeps its 200.
	owner := rt.Ring().Owner(mustSolveRef(t))
	doers[owner].status = http.StatusServiceUnavailable

	resp, _ := doJSON(t, rt, http.MethodPost, "/v1/solve", solveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 from the successor", resp.StatusCode)
	}
	if st := rt.Stats(); st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
}

// mustSolveRef computes solveBody's routing key the way the router does.
func mustSolveRef(t *testing.T) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://cluster/v1/solve", nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := solveKey(req, solveBody)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestAttemptTimeoutMovesOn: a stalled owner costs one AttemptTimeout,
// then the successor answers; the client never eats the whole stall.
func TestAttemptTimeoutMovesOn(t *testing.T) {
	stall := &stallDoer{}
	owner := ""
	rt := scriptedRouter(t, func(name string) Doer { return &scriptDoer{status: http.StatusOK} })
	owner = rt.Ring().Owner(mustSolveRef(t))
	// Rebuild with the owner stalled (doers are fixed at construction).
	rt = scriptedRouter(t, func(name string) Doer {
		if name == owner {
			return stall
		}
		return &scriptDoer{status: http.StatusOK}
	})
	rt.ConfigureRetry(RetryPolicy{MaxAttempts: 2, AttemptTimeout: 30 * time.Millisecond, BudgetRatio: 1})

	start := time.Now()
	resp, _ := doJSON(t, rt, http.MethodPost, "/v1/solve", solveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request took %v; per-attempt timeout did not bound the stall", elapsed)
	}
	st := rt.Stats()
	if st.AttemptTimeouts != 1 || st.Retries != 1 {
		t.Fatalf("attemptTimeouts/retries = %d/%d, want 1/1", st.AttemptTimeouts, st.Retries)
	}
	if stall.hits.Load() != 1 {
		t.Fatalf("stalled owner hit %d times, want 1", stall.hits.Load())
	}
}

// TestHedgeWinsOverSlowPrimary: the hedge fires after the configured
// delay and its clean 200 answers the client while the owner is still
// grinding.
func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	rt := scriptedRouter(t, func(name string) Doer { return &scriptDoer{status: http.StatusOK} })
	owner := rt.Ring().Owner(mustSolveRef(t))
	rt = scriptedRouter(t, func(name string) Doer {
		if name == owner {
			return &scriptDoer{status: http.StatusOK, delay: 300 * time.Millisecond}
		}
		return &scriptDoer{status: http.StatusOK}
	})
	rt.ConfigureRetry(RetryPolicy{MaxAttempts: 3, AttemptTimeout: 2 * time.Second, BudgetRatio: 1})
	rt.EnableHedge(10 * time.Millisecond)

	start := time.Now()
	resp, _ := doJSON(t, rt, http.MethodPost, "/v1/solve", solveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
		t.Fatalf("hedged request took %v, want well under the owner's 300ms", elapsed)
	}
	st := rt.Stats()
	if st.Hedged != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedged/hedgeWins = %d/%d, want 1/1", st.Hedged, st.HedgeWins)
	}
}

// TestGraphRefSolveNotHedged: a graphRef is interned only at its owner,
// so a hedge to a successor could only draw a 404. Under the same slow
// owner and hedge delay that make a full-body solve hedge, a graphRef
// solve waits for the owner's answer and no successor is touched.
func TestGraphRefSolveNotHedged(t *testing.T) {
	ref := mustSolveRef(t)
	doers := map[string]*scriptDoer{}
	rt := scriptedRouter(t, func(name string) Doer {
		d := &scriptDoer{status: http.StatusOK}
		doers[name] = d
		return d
	})
	owner := rt.Ring().Owner(ref)
	doers[owner].delay = 300 * time.Millisecond
	rt.ConfigureRetry(RetryPolicy{MaxAttempts: 3, AttemptTimeout: 2 * time.Second, BudgetRatio: 1})
	rt.EnableHedge(10 * time.Millisecond)

	resp, body := doJSON(t, rt, http.MethodPost, "/v1/solve", []byte(`{"graphRef":"`+ref+`","p":[2,1]}`))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"span":4`) {
		t.Fatalf("status %d (%s), want the owner's 200", resp.StatusCode, body)
	}
	if st := rt.Stats(); st.Hedged != 0 {
		t.Fatalf("hedged = %d, want 0 for a graphRef solve", st.Hedged)
	}
	for name, d := range doers {
		want := int64(0)
		if name == owner {
			want = 1
		}
		if got := d.hits.Load(); got != want {
			t.Errorf("backend %s hit %d times, want %d (owner %s)", name, got, want, owner)
		}
	}
}

// TestHedgeNeverMasksTerminalAnswer: when the primary answers a
// terminal 429 before the hedge delay elapses, no hedge fires at all —
// hedging must not convert "the owner is busy" into extra cluster load.
func TestHedgeNeverMasksTerminalAnswer(t *testing.T) {
	doers := map[string]*scriptDoer{}
	rt := scriptedRouter(t, func(name string) Doer {
		d := &scriptDoer{status: http.StatusTooManyRequests,
			header: http.Header{"Retry-After": []string{"3"}}}
		doers[name] = d
		return d
	})
	rt.ConfigureRetry(RetryPolicy{MaxAttempts: 3, BudgetRatio: 1})
	rt.EnableHedge(50 * time.Millisecond)

	resp, _ := doJSON(t, rt, http.MethodPost, "/v1/solve", solveBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want the owner's 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want preserved %q", got, "3")
	}
	var total int64
	for _, d := range doers {
		total += d.hits.Load()
	}
	if total != 1 {
		t.Fatalf("%d backends consulted, want 1 (no hedge for a fast terminal answer)", total)
	}
	if st := rt.Stats(); st.Hedged != 0 {
		t.Fatalf("hedged = %d, want 0", st.Hedged)
	}
}

func TestRetryBudgetBounds(t *testing.T) {
	b := newRetryBudget(0.5)
	// The bucket starts full: exactly retryBudgetCap immediate takes.
	for i := 0; i < retryBudgetCap; i++ {
		if !b.take() {
			t.Fatalf("take %d refused on a full bucket", i)
		}
	}
	if b.take() {
		t.Fatal("empty bucket honored a take")
	}
	// Two requests deposit 2×0.5 = one retry token.
	b.onRequest()
	if b.take() {
		t.Fatal("half a token honored a take")
	}
	b.onRequest()
	if !b.take() {
		t.Fatal("a full deposited token was refused")
	}
	// Deposits clamp at the cap.
	for i := 0; i < 100; i++ {
		b.onRequest()
	}
	takes := 0
	for b.take() {
		takes++
	}
	if takes != retryBudgetCap {
		t.Fatalf("bucket held %d tokens after heavy deposits, want cap %d", takes, retryBudgetCap)
	}
}

func TestRetryBudgetSuppressesSuccessorWalk(t *testing.T) {
	rt := scriptedRouter(t, func(name string) Doer { return deadDoer{} })
	// A minimal ratio with the bucket pre-drained: the first request may
	// not retry at all.
	rt.ConfigureRetry(RetryPolicy{MaxAttempts: 3, BudgetRatio: 0.001})
	st := rt.retry.Load()
	for st.budget.take() {
	}

	resp, _ := doJSON(t, rt, http.MethodPost, "/v1/solve", solveBody)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	stats := rt.Stats()
	if stats.Retries != 0 {
		t.Fatalf("retries = %d, want 0 (budget drained)", stats.Retries)
	}
	if stats.RetryBudgetExhausted == 0 {
		t.Fatal("budget exhaustion not counted")
	}
}

func TestLatencyTrackerP95(t *testing.T) {
	lt := newLatencyTracker()
	if got := lt.p95(123 * time.Millisecond); got != 123*time.Millisecond {
		t.Fatalf("p95 with no samples = %v, want the fallback", got)
	}
	for i := 1; i <= 100; i++ {
		lt.observe(time.Duration(i) * time.Millisecond)
	}
	got := lt.p95(0)
	if got < 90*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p95 of 1..100ms = %v, want ~95ms", got)
	}
}
