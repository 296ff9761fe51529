package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lpltsp/internal/labeling"
)

// watchedCache returns a private cache whose watchdog is armed at grace.
func watchedCache(grace float64) *SolveCache {
	c := NewSolveCache(DefaultCacheCapacity)
	c.SetWatchdogGrace(grace)
	return c
}

func TestWatchdogGraceDefaultsAndClamp(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	if g := c.watchdog.grace(); g != 0 {
		t.Fatalf("default grace = %v, want 0 (disabled)", g)
	}
	c.SetWatchdogGrace(0.25)
	if g := c.watchdog.grace(); g != 1 {
		t.Fatalf("grace 0.25 should clamp to 1, got %v", g)
	}
	c.SetWatchdogGrace(-3)
	if g := c.watchdog.grace(); g != 0 {
		t.Fatalf("negative grace should disable, got %v", g)
	}
}

// TestWatchdogScopedToCache: arming one cache's watchdog arms no other.
// The same wedged method runs on an armed and an unarmed cache at once:
// the armed cache kills its flight, while the unarmed one waits the leak
// out and returns the method's late result, never killed.
func TestWatchdogScopedToCache(t *testing.T) {
	registerGuardMethods()
	armed, unarmed := watchedCache(2), NewSolveCache(DefaultCacheCapacity)
	leakSleep.Store(int64(800 * time.Millisecond))
	defer leakSleep.Store(0)

	g := guardTestGraph(t)
	var errs [2]error
	var wg sync.WaitGroup
	for i, c := range []*SolveCache{armed, unarmed} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Solve(g, labeling.Vector{2, 1},
				&Options{Method: leakName, Verify: true, Deadline: 100 * time.Millisecond, Cache: c})
		}()
	}
	wg.Wait()
	if !errors.Is(errs[0], ErrSolveStuck) {
		t.Fatalf("armed cache: err = %v, want ErrSolveStuck", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("unarmed cache: err = %v, want the leaked method's late result", errs[1])
	}
	if a, u := armed.WatchdogKillCount(), unarmed.WatchdogKillCount(); a != 1 || u != 0 {
		t.Fatalf("kill counts armed %d unarmed %d, want 1 and 0", a, u)
	}
	if grace := defaultSolveCache.watchdog.grace(); grace != 0 {
		t.Fatalf("arming a private cache armed the default cache (grace %v)", grace)
	}
}

// TestWatchdogKillsStuckSolve is the watchdog acceptance test: a pinned
// method that ignores its context wedges a deadline-bounded flight; the
// caller must come back with a typed stuck-solve error at roughly
// grace × deadline, not hang for the method's full sleep.
func TestWatchdogKillsStuckSolve(t *testing.T) {
	registerGuardMethods()
	c := watchedCache(2)
	leakSleep.Store(int64(3 * time.Second))
	defer leakSleep.Store(0)

	g := guardTestGraph(t)
	opts := &Options{Method: leakName, Verify: true, Deadline: 100 * time.Millisecond, Cache: c}
	start := time.Now()
	_, err := Solve(g, labeling.Vector{2, 1}, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrSolveStuck) {
		t.Fatalf("err = %v (after %v), want ErrSolveStuck", err, elapsed)
	}
	var se *StuckSolveError
	if !errors.As(err, &se) {
		t.Fatalf("err %T does not unwrap to *StuckSolveError", err)
	}
	if se.Method != leakName {
		t.Fatalf("stuck solve attributed to %q, want %q", se.Method, leakName)
	}
	if se.Grace != 2 {
		t.Fatalf("StuckSolveError.Grace = %v, want 2", se.Grace)
	}
	// Killed at ~grace×deadline (200ms) + poll slack, far short of the
	// 3s the leaked method actually sleeps.
	if elapsed >= 2*time.Second {
		t.Fatalf("caller waited %v; watchdog did not fire", elapsed)
	}
	// The kill is counted before any waiter is released, so the count
	// is already there when the caller returns.
	if got := c.WatchdogKillCount(); got != 1 {
		t.Fatalf("WatchdogKillCount = %d, want 1", got)
	}
}

// TestWatchdogReleasesFollowers pins a leader and followers on one
// wedged flight: every waiter must be released by the kill.
func TestWatchdogReleasesFollowers(t *testing.T) {
	registerGuardMethods()
	c := watchedCache(2)
	leakSleep.Store(int64(3 * time.Second))
	defer leakSleep.Store(0)

	g := guardTestGraph(t)
	const callers = 6
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := Solve(g, labeling.Vector{2, 1},
				&Options{Method: leakName, Verify: true, Deadline: 100 * time.Millisecond, Cache: c})
			errs <- err
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiters not released within 2s; flight wedged past the watchdog")
	}
	close(errs)
	stuck := 0
	for err := range errs {
		switch {
		case errors.Is(err, ErrSolveStuck):
			stuck++
		case errors.Is(err, context.DeadlineExceeded):
			// A follower whose own 100ms deadline fired before the 200ms
			// kill while others kept the flight alive — legitimate.
		default:
			t.Fatalf("waiter err = %v, want stuck-solve or deadline", err)
		}
	}
	if stuck == 0 {
		t.Fatal("no waiter saw the stuck-solve error")
	}
}

// TestWatchdogSparesCooperativeSolves: a solve that finishes within its
// deadline must never be force-failed even when watched.
func TestWatchdogSparesCooperativeSolves(t *testing.T) {
	c := watchedCache(2)
	g := guardTestGraph(t)
	for i := 0; i < 3; i++ {
		res, err := Solve(g, labeling.Vector{2, 1}, &Options{Verify: true, Deadline: 5 * time.Second, Cache: c})
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if res.Span < 0 {
			t.Fatalf("solve %d: bad span %d", i, res.Span)
		}
	}
	if got := c.WatchdogKillCount(); got != 0 {
		t.Fatalf("WatchdogKillCount = %d for healthy solves, want 0", got)
	}
	// The monitor winds down once its watch list empties.
	waitFor(t, "watchdog monitor exit", func() bool {
		c.watchdog.mu.Lock()
		defer c.watchdog.mu.Unlock()
		return len(c.watchdog.entries) == 0 && !c.watchdog.running
	})
}

// TestWatchdogKilledFlightNotJoinable: after a kill, a new identical
// request must lead a fresh flight (and, with the leak cleared, succeed)
// rather than boarding the corpse.
func TestWatchdogKilledFlightNotJoinable(t *testing.T) {
	registerGuardMethods()
	c := watchedCache(2)
	leakSleep.Store(int64(2 * time.Second))

	g := guardTestGraph(t)
	opts := &Options{Method: leakName, Verify: true, Deadline: 100 * time.Millisecond, Cache: c}
	if _, err := Solve(g, labeling.Vector{2, 1}, opts); !errors.Is(err, ErrSolveStuck) {
		t.Fatalf("setup kill failed: %v", err)
	}
	// Heal the method; the same instance must now solve cleanly on a new
	// flight (long deadline so the fresh solve is not itself killed).
	leakSleep.Store(0)
	res, err := Solve(g, labeling.Vector{2, 1},
		&Options{Method: leakName, Verify: true, Deadline: 5 * time.Second, Cache: c})
	if err != nil {
		t.Fatalf("post-kill solve: %v", err)
	}
	if res.Method != leakName {
		t.Fatalf("post-kill solve routed to %q", res.Method)
	}
}
