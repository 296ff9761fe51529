package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
)

// gateMethod is a planner method that parks inside Solve until released
// and counts its invocations — the deterministic way to hold a flight
// open while followers pile on. It only applies when explicitly pinned.
type gateMethod struct{}

const gateName MethodName = "test-gate"

var (
	gateMu      sync.Mutex
	gateRelease chan struct{}
	gateEntered chan struct{} // receives one token per Solve entry
	gateSolves  atomic.Int64
)

// armGate resets the gate; the returned func opens it.
func armGate() func() {
	gateMu.Lock()
	gateRelease = make(chan struct{})
	gateEntered = make(chan struct{}, 64)
	gateMu.Unlock()
	gateSolves.Store(0)
	ch := gateRelease
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func (gateMethod) Name() MethodName { return gateName }

func (gateMethod) Check(pr *Probe, p labeling.Vector, opts *Options) Applicability {
	if opts == nil || opts.Method != gateName {
		return Applicability{Reason: "test method; pin it explicitly"}
	}
	return Applicability{OK: true, Cost: 1, Reason: "test gate"}
}

func (gateMethod) Solve(ctx context.Context, pr *Probe, p labeling.Vector, opts *Options) (*Result, error) {
	gateSolves.Add(1)
	gateMu.Lock()
	entered, release := gateEntered, gateRelease
	gateMu.Unlock()
	entered <- struct{}{}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-release:
	}
	lab, span, err := labeling.GreedyFirstFit(pr.G, p, labeling.OrderDegree)
	if err != nil {
		return nil, err
	}
	return &Result{Labeling: lab, Span: span, Method: gateName}, nil
}

var registerGateOnce sync.Once

// gateOpts pins the gate method on cache c.
func gateOpts(c *SolveCache) *Options {
	registerGateOnce.Do(func() { RegisterMethod(gateMethod{}) })
	return &Options{Method: gateName, Verify: true, Cache: c}
}

// flightRefs reports the refcount of c's live flight for key (0 if none).
func flightRefs(c *SolveCache, key string) int {
	sh := &c.flights.shards[fnvKey(key)&(flightShardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.m[key]
	if !ok {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.refs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSingleflightDedup is the acceptance test: K concurrent identical
// requests perform exactly one underlying solve. The leader is pinned
// inside the gated method until every follower has demonstrably joined
// the flight, so the LRU cannot serve anyone — only coalescing can.
func TestSingleflightDedup(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	release := armGate()
	defer release()

	g := graph.Cycle(7)
	p := labeling.L21()
	opts := gateOpts(c)
	key := cacheKeyFor(g, p, opts)

	const K = 16
	results := make(chan *Result, K)
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		go func() {
			res, err := Solve(g, p, opts)
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}()
	}

	// The leader is inside the method; all K-1 followers join its flight.
	<-gateEntered
	waitFor(t, "all followers to join the flight", func() bool { return flightRefs(c, key) == K })
	release()

	var leaders, followers int
	var spans []int
	for i := 0; i < K; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case res := <-results:
			spans = append(spans, res.Span)
			if res.CacheHit {
				if !res.Coalesced {
					t.Fatal("follower without Coalesced provenance")
				}
				followers++
			} else {
				if res.Coalesced {
					t.Fatal("leader marked Coalesced")
				}
				leaders++
			}
		}
	}
	if leaders != 1 || followers != K-1 {
		t.Fatalf("leaders=%d followers=%d, want 1 and %d", leaders, followers, K-1)
	}
	for _, s := range spans {
		if s != spans[0] {
			t.Fatalf("coalesced spans diverge: %v", spans)
		}
	}
	if n := gateSolves.Load(); n != 1 {
		t.Fatalf("underlying method ran %d times, want exactly 1", n)
	}
	if st := c.Stats(); st.Coalesced != K-1 {
		t.Fatalf("coalesced counter %d, want %d (stats %+v)", st.Coalesced, K-1, st)
	}

	// The flight is gone and the result landed in the LRU: one more
	// request is a plain hit, not a new flight.
	if refs := flightRefs(c, key); refs != 0 {
		t.Fatalf("flight still live with %d refs", refs)
	}
	res, err := Solve(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Coalesced {
		t.Fatalf("post-flight request: CacheHit=%v Coalesced=%v, want LRU hit", res.CacheHit, res.Coalesced)
	}
}

// TestSingleflightLeaderDisconnect: the leader's caller hangs up
// mid-solve while a follower is still interested — the solve must keep
// running and deliver the follower's result (the cooperative-cancellation
// contract: the flight dies only when the LAST participant leaves).
func TestSingleflightLeaderDisconnect(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	release := armGate()
	defer release()

	g := graph.Path(9)
	p := labeling.L21()
	opts := gateOpts(c)
	key := cacheKeyFor(g, p, opts)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := SolveContext(leaderCtx, g, p, opts)
		leaderErr <- err
	}()
	<-gateEntered // leader is inside the method

	followerRes := make(chan *Result, 1)
	followerErr := make(chan error, 1)
	go func() {
		res, err := Solve(g, p, opts)
		if err != nil {
			followerErr <- err
			return
		}
		followerRes <- res
	}()
	waitFor(t, "follower to join", func() bool { return flightRefs(c, key) == 2 })

	// Leader's caller disconnects; the flight must stay alive for the
	// follower (refs 2 → 1, no cancellation).
	cancelLeader()
	waitFor(t, "leader's interest released", func() bool { return flightRefs(c, key) == 1 })
	release()

	select {
	case err := <-followerErr:
		t.Fatalf("follower failed after leader disconnect: %v", err)
	case res := <-followerRes:
		if !res.CacheHit || !res.Coalesced {
			t.Fatalf("follower provenance: %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never got the coalesced result")
	}
	if n := gateSolves.Load(); n != 1 {
		t.Fatalf("method ran %d times, want 1", n)
	}
	// The leader's goroutine finished the solve; whatever it returned,
	// it must have returned (no leak) — and with the solve completed
	// before the watcher won any race, a result is acceptable too.
	select {
	case <-leaderErr:
	case <-time.After(10 * time.Second):
		t.Fatal("leader goroutine never returned")
	}
}

// TestSingleflightAllCancel: when every participant disconnects, the
// flight context is cancelled and the solve unwinds cooperatively with
// the callers' own context errors.
func TestSingleflightAllCancel(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	release := armGate()
	defer release() // never released by the test body: only cancellation can end the solve

	g := graph.Cycle(9)
	p := labeling.L21()
	opts := gateOpts(c)
	key := cacheKeyFor(g, p, opts)

	ctx, cancel := context.WithCancel(context.Background())
	const K = 4
	errCh := make(chan error, K)
	for i := 0; i < K; i++ {
		go func() {
			_, err := SolveContext(ctx, g, p, opts)
			errCh <- err
		}()
	}
	<-gateEntered
	waitFor(t, "all participants on the flight", func() bool { return flightRefs(c, key) == K })
	cancel()
	for i := 0; i < K; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("participant error %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("participant stuck after cancellation")
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled flight left %d cache entries", st.Entries)
	}
}

// TestSingleflightDeadlineError: a coalesced-path solve that dies at its
// Options.Deadline still reports DeadlineExceeded (not the flight's
// internal Canceled), preserving the pre-singleflight error surface.
func TestSingleflightDeadlineError(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	_ = armGate() // never released: only the deadline can end the solve

	opts := gateOpts(c)
	opts.Deadline = 30 * time.Millisecond
	_, err := Solve(graph.Path(5), labeling.L21(), opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
}

// TestSingleflightLeaderDeadlineWithFollower: a leader whose deadline
// fires while a follower keeps the flight alive is released AT its
// deadline (it must not block for the follower's sake), while the shared
// solve keeps running and the follower still gets the result.
func TestSingleflightLeaderDeadlineWithFollower(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	release := armGate()
	defer release()

	g := graph.Cycle(11)
	p := labeling.L21()
	leaderOpts := gateOpts(c)
	leaderOpts.Deadline = 60 * time.Millisecond
	key := cacheKeyFor(g, p, leaderOpts) // deadlines are excluded from the key

	leaderErr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		_, err := Solve(g, p, leaderOpts)
		leaderErr <- err
	}()
	<-gateEntered // leader is inside the method

	followerRes := make(chan *Result, 1)
	followerErr := make(chan error, 1)
	go func() {
		res, err := Solve(g, p, gateOpts(c)) // no deadline
		if err != nil {
			followerErr <- err
			return
		}
		followerRes <- res
	}()
	waitFor(t, "follower to join", func() bool { return flightRefs(c, key) == 2 })

	select {
	case err := <-leaderErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("leader error %v, want DeadlineExceeded", err)
		}
		if waited := time.Since(t0); waited > 5*time.Second {
			t.Fatalf("leader blocked %v past its 60ms deadline", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader still blocked long after its deadline")
	}
	// The flight must still be alive for the follower.
	if refs := flightRefs(c, key); refs != 1 {
		t.Fatalf("flight refs %d after leader deadline, want 1", refs)
	}
	release()
	select {
	case err := <-followerErr:
		t.Fatalf("follower failed: %v", err)
	case res := <-followerRes:
		if !res.CacheHit || !res.Coalesced {
			t.Fatalf("follower provenance: CacheHit=%v Coalesced=%v", res.CacheHit, res.Coalesced)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never got the result")
	}
	if n := gateSolves.Load(); n != 1 {
		t.Fatalf("method ran %d times, want 1", n)
	}
}

// anytimeMethod blocks until its context dies, then surrenders a valid
// best-so-far labeling with Truncated set — the engines' anytime
// contract in miniature, for pinning the harvest path.
type anytimeMethod struct{}

const anytimeName MethodName = "test-anytime"

func (anytimeMethod) Name() MethodName { return anytimeName }

func (anytimeMethod) Check(pr *Probe, p labeling.Vector, opts *Options) Applicability {
	if opts == nil || opts.Method != anytimeName {
		return Applicability{Reason: "test method; pin it explicitly"}
	}
	return Applicability{OK: true, Cost: 1, Reason: "test anytime"}
}

func (anytimeMethod) Solve(ctx context.Context, pr *Probe, p labeling.Vector, opts *Options) (*Result, error) {
	<-ctx.Done()
	lab, span, err := labeling.GreedyFirstFit(pr.G, p, labeling.OrderDegree)
	if err != nil {
		return nil, err
	}
	return &Result{Labeling: lab, Span: span, Truncated: true, Method: anytimeName}, nil
}

var registerAnytimeOnce sync.Once

// TestSingleflightSoloDeadlineKeepsAnytimeResult: a deadline-bounded
// solve with no other participants behaves exactly as before
// singleflight existed — the flight dies with its only caller and the
// caller harvests the anytime best-so-far labeling (Truncated, no error)
// instead of a bare DeadlineExceeded.
func TestSingleflightSoloDeadlineKeepsAnytimeResult(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	registerAnytimeOnce.Do(func() { RegisterMethod(anytimeMethod{}) })

	opts := &Options{Method: anytimeName, Verify: true, Deadline: 40 * time.Millisecond, Cache: c}
	res, err := Solve(graph.Cycle(6), labeling.L21(), opts)
	if err != nil {
		t.Fatalf("solo deadline solve errored: %v (want truncated anytime result)", err)
	}
	if !res.Truncated || res.CacheHit || res.Coalesced {
		t.Fatalf("provenance %+v, want Truncated=true fresh result", res)
	}
	// Truncated results never enter the LRU.
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("truncated result was cached: %+v", st)
	}
}
