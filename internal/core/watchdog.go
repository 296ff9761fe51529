package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Stuck-solve watchdog. Cooperative cancellation assumes engines reach
// their checkpoints; an engine that spins without checking its context
// (a bug, or an injected fault.KindLeak) holds its singleflight flight —
// and every coalesced waiter — open forever. The watchdog monitors
// deadline-bearing flights and, once a solve has overrun its deadline by
// the configured grace factor, force-fails the flight: waiters are
// released with a typed *StuckSolveError (→ 408 + quarantine in the
// serving layer), the flight is removed from its shard so new arrivals
// lead a fresh solve, and the runaway goroutine is left to die alone —
// it cannot be killed, but it can be disowned, and its eventual result
// is discarded (the flight is already failed when it finishes).
//
// Each SolveCache has its own watchdog over its own flights, disabled
// until SolveCache.SetWatchdogGrace arms it. Only cacheable solves with a
// deadline are watched — the uncacheable path has no flight and no
// waiters to strand, and a deadline-free solve has no overrun to
// measure.

// ErrSolveStuck is the sentinel a watchdog force-fail wraps.
var ErrSolveStuck = errors.New("core: solve overran its deadline grace; force-failed by watchdog")

// StuckSolveError reports a solve the watchdog reclaimed.
type StuckSolveError struct {
	// Method is the planned method that was running, when known ("" if
	// the solve wedged before planning finished).
	Method MethodName
	// Grace is the watchdog grace factor in force at the kill.
	Grace float64
}

func (e *StuckSolveError) Error() string {
	m := e.Method
	if m == "" {
		m = "unknown method"
	}
	return fmt.Sprintf("core: solve (%s) still running at %.3gx its deadline; force-failed by watchdog", m, e.Grace)
}

func (e *StuckSolveError) Unwrap() error { return ErrSolveStuck }

// SetWatchdogGrace arms the stuck-solve watchdog over this cache's
// flights: a deadline-bearing solve is force-failed once it has run for
// g × its deadline budget. g ≤ 0 disables it (the default); values in
// (0,1) clamp to 1 (killing before the deadline would race the engines'
// own cooperative truncation).
func (c *SolveCache) SetWatchdogGrace(g float64) {
	if g < 0 {
		g = 0
	}
	if g > 0 && g < 1 {
		g = 1
	}
	c.watchdog.graceBits.Store(math.Float64bits(g))
}

// WatchdogKillCount returns the number of solves this cache's watchdog
// has force-failed.
func (c *SolveCache) WatchdogKillCount() int64 { return c.watchdog.kills.Load() }

// watchdogPollInterval bounds how stale the monitor's view can get: new
// registrations wake it immediately, but a sleeping monitor re-scans at
// least this often.
const watchdogPollInterval = 100 * time.Millisecond

type watchdogEntry struct {
	sh     *flightShard
	key    string
	killAt time.Time
}

type watchdog struct {
	// graceBits holds the grace factor as math.Float64bits; zero
	// disables the watchdog.
	graceBits atomic.Uint64
	kills     atomic.Int64
	wake      chan struct{} // buffered(1): nudges the monitor on registration

	mu      sync.Mutex
	entries map[*flight]watchdogEntry
	running bool // monitor goroutine alive
}

func (w *watchdog) grace() float64 { return math.Float64frombits(w.graceBits.Load()) }

// register puts a flight under watch and lazily starts the monitor. The
// monitor exits when its watch list empties, so an idle process carries
// no extra goroutine.
func (w *watchdog) register(f *flight, sh *flightShard, key string, killAt time.Time) {
	w.mu.Lock()
	if w.entries == nil {
		w.entries = map[*flight]watchdogEntry{}
	}
	w.entries[f] = watchdogEntry{sh: sh, key: key, killAt: killAt}
	if !w.running {
		w.running = true
		go w.loop()
	}
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// unregister drops a flight from watch (normal completion).
func (w *watchdog) unregister(f *flight) {
	w.mu.Lock()
	delete(w.entries, f)
	w.mu.Unlock()
}

func (w *watchdog) loop() {
	for {
		w.mu.Lock()
		if len(w.entries) == 0 {
			w.running = false
			w.mu.Unlock()
			return
		}
		now := time.Now()
		next := now.Add(watchdogPollInterval)
		var due []*flight
		var dueEntries []watchdogEntry
		for f, e := range w.entries {
			if !e.killAt.After(now) {
				due = append(due, f)
				dueEntries = append(dueEntries, e)
				delete(w.entries, f)
			} else if e.killAt.Before(next) {
				next = e.killAt
			}
		}
		w.mu.Unlock()
		for i, f := range due {
			w.kill(f, dueEntries[i])
		}
		timer := time.NewTimer(time.Until(next))
		select {
		case <-timer.C:
		case <-w.wake:
		}
		timer.Stop()
	}
}

// kill disowns one overdue flight: remove it from its shard first (new
// arrivals lead a fresh flight instead of boarding the dead one), then
// force-fail its waiters. A flight that completed in the race window is
// left alone — forceFail refuses flights whose done channel closed.
func (w *watchdog) kill(f *flight, e watchdogEntry) {
	method, _ := f.method.Load().(MethodName)
	e.sh.mu.Lock()
	if e.sh.m[e.key] == f {
		delete(e.sh.m, e.key)
	}
	e.sh.mu.Unlock()
	f.forceFail(&StuckSolveError{Method: method, Grace: w.grace()}, &w.kills)
}
