package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Singleflight coalescing for the solve cache: N concurrent identical
// requests perform exactly one underlying solve. The LRU only helps
// *after* the first solve of an instance completes; under service
// traffic the dominant duplication is N users asking for the same
// instance at the same time, which the plain cache turns into N full
// solves. Here the first arrival leads the solve and everyone else joins
// its flight and waits for the shared result.
//
// Cancellation is reference counted: the flight runs on its own
// goroutine under its own context, detached from any participant's, and
// is cancelled (cooperatively, through the engines' usual checkpoints)
// only when the *last* interested caller leaves. Every participant —
// the leader included — waits for the flight with a select against its
// own context, so a deadline or disconnect unblocks that caller
// immediately while the solve keeps running for whoever remains. A
// participant whose departure is what kills the flight harvests the
// unwinding solve's outcome instead, so a solo deadline-bounded solve
// still returns its anytime best-so-far labeling exactly as it did
// before coalescing existed. The one semantic difference from an
// uncoalesced solve: if your deadline fires while *others* keep the
// flight alive, you get your context error rather than a truncated
// incumbent — the incumbent lives inside engines that are deliberately
// not stopping.

const flightShardCount = 16

type flightTable struct {
	shards [flightShardCount]flightShard
}

type flightShard struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-progress solve shared by a leader and any number of
// followers. res/err are written by the flight goroutine before done is
// closed and read by participants only after it closes (channel
// happens-before). forced/forcedErr are the watchdog's channel: closed
// when the flight is force-failed with the solve still running, with
// forcedErr written before the close (same happens-before discipline).
type flight struct {
	done chan struct{}
	res  *Result // stored deep copy; nil when err != nil
	err  error

	forced    chan struct{}
	forcedErr error

	// method is the planned MethodName, stored by solveSingle once the
	// plan is known, so a watchdog kill can attribute the stuck solve.
	method atomic.Value

	mu        sync.Mutex
	refs      int // callers still interested in the result
	abandoned bool
	forcedSet bool
	cancel    context.CancelFunc
}

// join registers one more interested caller. It fails when every
// participant already left and the flight's context is being cancelled —
// the caller should lead a fresh flight instead of boarding a doomed
// one — and likewise when the watchdog already force-failed the flight.
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.abandoned || f.forcedSet {
		return false
	}
	f.refs++
	return true
}

// forceFail fails every waiter on a still-running flight (watchdog
// path). It refuses flights that already completed — waiters holding a
// real result must keep it. A kill it makes is counted on kills before
// any waiter is released, so a released waiter always finds its own kill
// counted. The flight context is cancelled too, on the off chance the
// runaway solve reaches a checkpoint after all.
func (f *flight) forceFail(err error, kills *atomic.Int64) {
	select {
	case <-f.done:
		return
	default:
	}
	f.mu.Lock()
	if f.forcedSet {
		f.mu.Unlock()
		return
	}
	f.forcedSet = true
	f.forcedErr = err
	f.mu.Unlock()
	kills.Add(1)
	close(f.forced)
	f.cancel()
}

// leave drops one caller's interest and reports whether that made the
// caller the last one out — in which case the flight is now unwinding
// (cancelled) and its imminent outcome belongs to this caller.
func (f *flight) leave() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refs--; f.refs == 0 && !f.abandoned {
		f.abandoned = true
		f.cancel()
		return true
	}
	return false
}

// solveCoalesced is the cache front door used by Solve and Portfolio:
// LRU lookup, then singleflight join-or-lead, then (for the leader's
// flight goroutine) the underlying solve fn and the LRU insert. fn
// receives the flight's context, whose lifetime is the union of every
// participant's interest.
//
// A hit never touches the flight shard: the fast path is one cache-shard
// lookup with the deep copy taken outside any lock. Only a miss takes
// the flight-shard lock, where a second (recounted, so every request
// still counts exactly one hit or miss) lookup closes the window in
// which a finishing leader published and retired between the miss and
// the lock; a finishing leader conversely publishes to the LRU *before*
// retiring its flight. Together these guarantee a request can never
// slip between "missed the cache" and "flight already gone" into a
// duplicate solve. Lock order: flight shard → cache shard, the only
// place both are held.
func (c *SolveCache) solveCoalesced(ctx context.Context, key string, fn func(context.Context) (*Result, error)) (*Result, error) {
	if res, ok := c.get(key); ok {
		return res, nil
	}
	sh := &c.flights.shards[fnvKey(key)&(flightShardCount-1)]
	sh.mu.Lock()
	if res, ok := c.getRecounted(key); ok {
		sh.mu.Unlock()
		return res, nil
	}
	if sh.m == nil {
		sh.m = map[string]*flight{}
	}
	if f, ok := sh.m[key]; ok && f.join() {
		sh.mu.Unlock()
		return c.waitFlight(ctx, f)
	}
	// No live flight (or only an abandoned/force-failed one, which the
	// new flight displaces; the old flight's cleanup checks identity
	// before deleting). This caller leads. The flight rides in fn's
	// context so solveSingle can attribute the planned method to it.
	f := &flight{done: make(chan struct{}), forced: make(chan struct{}), refs: 1}
	fctx, cancel := context.WithCancel(context.WithValue(context.WithoutCancel(ctx), flightCtxKey{}, f))
	f.cancel = cancel
	sh.m[key] = f
	sh.mu.Unlock()
	return c.leadFlight(ctx, fctx, sh, key, f, fn)
}

// flightCtxKey carries the *flight down fn's context (see solveSingle's
// method attribution and the watchdog's StuckSolveError.Method).
type flightCtxKey struct{}

// harvest collects a finished (or now-unwinding) flight's outcome for
// the participant whose departure cancelled it: the anytime engines are
// surrendering their incumbents at this very cancellation, so waiting
// out the cooperative checkpoint preserves the pre-coalescing deadline
// contract — a truncated best-so-far labeling rather than a bare error.
// A wedged solve never reaches that checkpoint, which is exactly the
// case forced covers: the watchdog's kill releases this last waiter too.
func harvest(ctx context.Context, f *flight) (*Result, error) {
	select {
	case <-f.done:
	case <-f.forced:
		select {
		case <-f.done:
		default:
			return nil, f.forcedErr
		}
	}
	if f.err != nil {
		return nil, mapFlightErr(ctx, f.err)
	}
	return copyResult(f.res), nil
}

// mapFlightErr translates a flight-context error into the caller's own
// reason: fn only ever sees the flight context, so its Canceled means
// "every participant left" and the caller's context (DeadlineExceeded vs
// Canceled) is the true cause, exactly as a direct solve would report.
func mapFlightErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return cerr
	}
	return err
}

// waitFlight is the follower path: wait for the flight's result, a
// watchdog force-fail, or this caller's own context, whichever comes
// first. A ready result always beats a concurrent force-fail — waiters
// never trade a real answer for the watchdog's error.
func (c *SolveCache) waitFlight(ctx context.Context, f *flight) (*Result, error) {
	select {
	case <-f.done:
		return c.coalescedResult(f)
	case <-f.forced:
		select {
		case <-f.done:
			return c.coalescedResult(f)
		default:
		}
		return nil, f.forcedErr
	case <-ctx.Done():
		if f.leave() {
			// This follower was the last participant: the solve is
			// unwinding right now on its behalf — take its anytime
			// outcome (leader-like provenance: this is the tail of the
			// one underlying solve, not a serve from shared state).
			return harvest(ctx, f)
		}
		return nil, ctx.Err()
	}
}

// coalescedResult hands a completed flight's outcome to a follower.
func (c *SolveCache) coalescedResult(f *flight) (*Result, error) {
	if f.err != nil {
		return nil, f.err
	}
	res := copyResult(f.res)
	res.CacheHit = true
	res.Coalesced = true
	c.coalesced.Add(1)
	return res, nil
}

// leadFlight starts the underlying solve on the flight's own goroutine
// and then waits for it exactly like a participant: the leader's caller
// is released at its own deadline or disconnect even when followers keep
// the flight alive past it, and a watchdog force-fail releases it like
// any other waiter.
func (c *SolveCache) leadFlight(ctx, fctx context.Context, sh *flightShard, key string, f *flight, fn func(context.Context) (*Result, error)) (*Result, error) {
	// Arm the watchdog before the solve starts: a flight with a deadline
	// is promised to terminate near it, and the watchdog enforces that
	// promise against engines that ignore cancellation.
	if grace := c.watchdog.grace(); grace > 0 {
		if dl, ok := ctx.Deadline(); ok {
			budget := time.Until(dl)
			if budget > 0 {
				c.watchdog.register(f, sh, key, time.Now().Add(time.Duration(grace*float64(budget))))
			}
		}
	}
	type outcome struct {
		res *Result
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		res, err := c.runFlight(fctx, f, fn)
		if err == nil {
			f.res = copyResult(res)
			f.res.CacheHit = false
			f.res.Coalesced = false
			// Publish to the LRU before retiring the flight: a concurrent
			// request always finds either the cached result or a joinable
			// flight (joining a just-completed flight hands back its
			// result immediately), never a gap it would re-solve in.
			// Deadline-rerouted results stay out for the same reason
			// truncated ones do: the cache key excludes deadlines, and a
			// relaxed request must not inherit a hurried route's result.
			if !res.Truncated && !res.DeadlineRerouted {
				c.put(key, res)
			}
		} else {
			f.err = err
		}
		sh.mu.Lock()
		if sh.m[key] == f {
			delete(sh.m, key)
		}
		sh.mu.Unlock()
		close(f.done)
		c.watchdog.unregister(f)
		f.cancel()
		out <- outcome{res, err}
	}()
	select {
	case o := <-out:
		if o.err != nil {
			return nil, mapFlightErr(ctx, o.err)
		}
		return o.res, nil
	case <-f.forced:
		select {
		case o := <-out:
			// Completed in the kill window: the real outcome wins.
			if o.err != nil {
				return nil, mapFlightErr(ctx, o.err)
			}
			return o.res, nil
		default:
		}
		return nil, f.forcedErr
	case <-ctx.Done():
		if f.leave() {
			// Solo leader at its deadline: the flight dies with it, and
			// the unwinding solve's best-so-far is its rightful result —
			// identical behavior to the pre-singleflight deadline path.
			// If the solve is wedged past cooperative cancellation, the
			// watchdog's force-fail is the only exit; select on it too.
			select {
			case o := <-out:
				if o.err != nil {
					return nil, mapFlightErr(ctx, o.err)
				}
				return o.res, nil
			case <-f.forced:
				select {
				case o := <-out:
					if o.err != nil {
						return nil, mapFlightErr(ctx, o.err)
					}
					return o.res, nil
				default:
				}
				return nil, f.forcedErr
			}
		}
		// Followers remain: the flight outlives this caller. Their
		// interest keeps the solve running; this caller gets its own
		// context error now instead of blocking past its deadline.
		return nil, ctx.Err()
	}
}

// runFlight is fn under the leader goroutine's recover boundary: this
// goroutine is detached from every caller, so an uncontained panic here
// would kill the process, not a request.
func (c *SolveCache) runFlight(fctx context.Context, f *flight, fn func(context.Context) (*Result, error)) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			method, _ := f.method.Load().(MethodName)
			if method == "" {
				method = panicSitePipeline
			}
			res, err = nil, c.capturePanic(method, v)
		}
	}()
	return fn(fctx)
}
