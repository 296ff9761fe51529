package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Deadline-aware admission scheduling. The scheduler replaces the old
// pair of buffered channels (admission tickets + solver slots) with one
// mutex-guarded state machine that owns every job in the system:
//
//	admit    → the job holds one of QueueDepth admission tickets
//	acquire  → the job enters the ready queue and blocks for a worker
//	           slot; grants are earliest-deadline-first (EDF) under the
//	           default policy, arrival-order under "fifo"
//	finish   → the job leaves the system (slot returned if running)
//
// Every job moves admitted → waiting → running → done, and finish() is
// idempotent through the state field — so each job decrements the
// queue occupancy exactly once no matter how it dies (solved, client
// disconnect while queued, shed, or never handed to a batch worker).
// The previous design spread that invariant over four separate
// queued.Add(-1) sites in the batch handler; here it is structural.
//
// Shedding: at 429-time (admission would overflow QueueDepth) under
// EDF, only load that provably cannot meet its deadline is turned away
// — an incoming job whose predicted service time exceeds its remaining
// budget is rejected as infeasible, and queued jobs that have become
// infeasible are shed to make room for feasible arrivals. Jobs without
// a deadline or without a prediction are never "provably" infeasible,
// so a cold predictor degrades to plain bounded-queue behavior.
//
// Tenant quotas: a named tenant (X-Lpl-Tenant header / tenant field)
// may hold at most quota jobs in the system at once, so one heavy user
// saturating the queue cannot starve the rest. Anonymous traffic is
// never quota-capped (it has no identity to cap).

// Admission error taxonomy; the handlers map these onto 429 responses
// with machine-readable codes.
var (
	errQueueFull   = errors.New("admission queue full")
	errTenantQuota = errors.New("over quota")
	errInfeasible  = errors.New("queue full and the request provably cannot meet its deadline (predicted service time exceeds the budget)")
	errShed        = errors.New("shed while queued: deadline no longer feasible")
)

type jobState uint8

const (
	jobAdmitted jobState = iota // in the system, not yet asking for a slot
	jobWaiting                  // in the ready queue
	jobRunning                  // holds a worker slot
	jobDone                     // left the system (accounting settled)
)

// schedJob is one admitted unit of work (a solo request or one batch
// item). All fields except grant are guarded by the scheduler mutex.
type schedJob struct {
	seq      uint64
	deadline time.Time // zero: no deadline (sorts last under EDF)
	tenant   string
	predNs   int64 // predicted service time; 0: unknown
	state    jobState
	heapIdx  int
	// grant carries the slot grant (nil) or a shed verdict (errShed);
	// buffered so the scheduler never blocks on a waiter.
	grant chan error
}

// infeasibleAt reports whether the job provably cannot meet its
// deadline: a known prediction that exceeds the remaining budget.
func (j *schedJob) infeasibleAt(now time.Time) bool {
	return !j.deadline.IsZero() && j.predNs > 0 && now.Add(time.Duration(j.predNs)).After(j.deadline)
}

// jobSpec is the admission request for one job.
type jobSpec struct {
	deadline time.Time
	predNs   int64
}

// tenantStat tracks one named tenant's occupancy and cumulative
// outcomes (surfaced under /v1/stats sched.tenants).
type tenantStat struct {
	inSystem int
	admitted int64
	rejected int64
	shed     int64
	solved   int64
	failed   int64
	misses   int64
}

// maxTrackedTenants bounds the per-tenant stats map; beyond it new
// tenants still obey the quota logic per request batch but are not
// individually tracked (their occupancy would be untrackable, so they
// are treated as anonymous).
const maxTrackedTenants = 256

type scheduler struct {
	mu      sync.Mutex
	edf     bool
	workers int
	depth   int
	quota   int // max jobs one named tenant may hold; 0 disables

	seq      uint64
	inSystem int
	running  int
	ready    jobHeap
	all      map[*schedJob]struct{}
	tenants  map[string]*tenantStat

	// Gauges mirrored into atomics so /v1/stats and /readyz read without
	// taking the scheduler lock.
	queued   atomic.Int64 // inSystem - running
	inFlight atomic.Int64 // running

	// Cumulative scheduling counters.
	sheds      atomic.Int64
	infeasible atomic.Int64
	quotaRejs  atomic.Int64
	misses     atomic.Int64
}

func newScheduler(edf bool, workers, depth, quota int) *scheduler {
	return &scheduler{
		edf:     edf,
		workers: workers,
		depth:   depth,
		quota:   quota,
		ready:   jobHeap{edf: edf},
		all:     make(map[*schedJob]struct{}),
		tenants: make(map[string]*tenantStat),
	}
}

func (sc *scheduler) publishGaugesLocked() {
	sc.queued.Store(int64(sc.inSystem - sc.running))
	sc.inFlight.Store(int64(sc.running))
}

func (sc *scheduler) tenantLocked(tenant string) *tenantStat {
	if tenant == "" {
		return nil
	}
	ts := sc.tenants[tenant]
	if ts == nil && len(sc.tenants) < maxTrackedTenants {
		ts = new(tenantStat)
		sc.tenants[tenant] = ts
	}
	return ts
}

// admit claims capacity for all specs or none (a partially admitted
// batch would deliver a silently shrunken stream). The error is one of
// errTenantQuota, errInfeasible, errQueueFull.
func (sc *scheduler) admit(tenant string, specs []jobSpec) ([]*schedJob, error) {
	n := len(specs)
	sc.mu.Lock()
	defer sc.mu.Unlock()

	ts := sc.tenantLocked(tenant)
	if sc.quota > 0 && ts != nil {
		if ts.inSystem+n > sc.quota {
			ts.rejected += int64(n)
			sc.quotaRejs.Add(1)
			return nil, fmt.Errorf("tenant %q %w: at most %d jobs in system per tenant", tenant, errTenantQuota, sc.quota)
		}
	}

	if sc.inSystem+n > sc.depth && sc.edf {
		now := time.Now()
		// 429-time triage, part 1: an arrival that provably cannot meet
		// its own deadline is the load to turn away.
		for i := range specs {
			probe := schedJob{deadline: specs[i].deadline, predNs: specs[i].predNs}
			if probe.infeasibleAt(now) {
				if ts != nil {
					ts.rejected += int64(n)
				}
				sc.infeasible.Add(int64(n))
				return nil, errInfeasible
			}
		}
		// Part 2: shed queued jobs that have become infeasible to make
		// room for feasible arrivals.
		for sc.inSystem+n > sc.depth {
			victim := sc.findInfeasibleLocked(now)
			if victim == nil {
				break
			}
			sc.shedLocked(victim)
		}
	}
	if sc.inSystem+n > sc.depth {
		if ts != nil {
			ts.rejected += int64(n)
		}
		return nil, fmt.Errorf("%w (%d jobs in system)", errQueueFull, sc.depth)
	}

	jobs := make([]*schedJob, n)
	for i := range specs {
		sc.seq++
		j := &schedJob{
			seq:      sc.seq,
			deadline: specs[i].deadline,
			tenant:   tenant,
			predNs:   specs[i].predNs,
			state:    jobAdmitted,
			heapIdx:  -1,
			grant:    make(chan error, 1),
		}
		sc.all[j] = struct{}{}
		jobs[i] = j
	}
	sc.inSystem += n
	if ts != nil {
		ts.inSystem += n
		ts.admitted += int64(n)
	}
	sc.publishGaugesLocked()
	return jobs, nil
}

// findInfeasibleLocked returns a queued (not yet running) job that
// provably cannot meet its deadline, or nil. Among several, the one
// with the least slack goes first — it is the most certainly dead.
func (sc *scheduler) findInfeasibleLocked(now time.Time) *schedJob {
	var victim *schedJob
	for j := range sc.all {
		if j.state != jobAdmitted && j.state != jobWaiting {
			continue
		}
		if !j.infeasibleAt(now) {
			continue
		}
		if victim == nil || j.deadline.Before(victim.deadline) {
			victim = j
		}
	}
	return victim
}

// shedLocked removes a queued job from the system with an errShed
// verdict; its acquire (pending or future) observes the verdict via
// the buffered grant channel.
func (sc *scheduler) shedLocked(j *schedJob) {
	if j.state == jobWaiting {
		heap.Remove(&sc.ready, j.heapIdx)
	}
	j.grant <- errShed
	sc.sheds.Add(1)
	if ts := sc.tenants[j.tenant]; ts != nil {
		ts.shed++
	}
	sc.removeLocked(j)
}

// removeLocked settles a job's occupancy accounting exactly once.
func (sc *scheduler) removeLocked(j *schedJob) {
	if j.state == jobDone {
		return
	}
	j.state = jobDone
	sc.inSystem--
	delete(sc.all, j)
	if ts := sc.tenants[j.tenant]; ts != nil {
		ts.inSystem--
	}
	sc.publishGaugesLocked()
}

// dispatchLocked grants worker slots to the ready queue's front —
// earliest deadline first (EDF) or arrival order (fifo).
func (sc *scheduler) dispatchLocked() {
	for sc.running < sc.workers && sc.ready.Len() > 0 {
		j := heap.Pop(&sc.ready).(*schedJob)
		j.state = jobRunning
		sc.running++
		j.grant <- nil
	}
	sc.publishGaugesLocked()
}

// acquire blocks until the job is granted a worker slot, shed, or the
// context is cancelled. On nil the caller holds a slot and must finish
// the job; on error the job has already left the system.
func (sc *scheduler) acquire(ctx context.Context, j *schedJob) error {
	sc.mu.Lock()
	if j.state == jobAdmitted {
		j.state = jobWaiting
		heap.Push(&sc.ready, j)
		sc.dispatchLocked()
	}
	sc.mu.Unlock()

	select {
	case err := <-j.grant:
		return err // nil: slot granted; errShed: shed while queued
	case <-ctx.Done():
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()
	// The grant may have raced the cancellation; consume it so the
	// verdict is settled under the lock.
	select {
	case err := <-j.grant:
		if err != nil {
			return err
		}
		// Granted a slot the caller no longer wants: give it back.
		sc.running--
		sc.removeLocked(j)
		sc.dispatchLocked()
		return ctx.Err()
	default:
	}
	if j.state == jobWaiting {
		heap.Remove(&sc.ready, j.heapIdx)
	}
	sc.removeLocked(j)
	return ctx.Err()
}

// finish releases whatever the job still holds: its worker slot when
// running, its ready-queue position when waiting, and its admission
// ticket always. Idempotent — callers may (and do) defer it
// unconditionally; a job that already left the system is a no-op.
func (sc *scheduler) finish(j *schedJob) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch j.state {
	case jobDone:
		return
	case jobWaiting:
		heap.Remove(&sc.ready, j.heapIdx)
	case jobRunning:
		sc.running--
	}
	sc.removeLocked(j)
	sc.dispatchLocked()
}

// complete records a finished solve's outcome against the job's tenant
// and the deadline-miss counter. Separate from finish: outcome is known
// where the result is consumed, release can happen elsewhere.
func (sc *scheduler) complete(j *schedJob, missed, failed bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if missed {
		sc.misses.Add(1)
	}
	ts := sc.tenants[j.tenant]
	if ts == nil {
		return
	}
	if missed {
		ts.misses++
	}
	if failed {
		ts.failed++
	} else {
		ts.solved++
	}
}

// drainEstimateNs estimates how long the current occupants need to
// drain through the worker pool: the sum of per-job predictions (EWMA
// fallback for jobs without one) divided across the workers. 0 means
// no evidence at all (cold start) — callers floor the hint.
func (sc *scheduler) drainEstimateNs(ewmaNs int64) int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var sum int64
	for j := range sc.all {
		per := j.predNs
		if per <= 0 {
			per = ewmaNs
		}
		if per > 0 {
			sum += per
		}
	}
	if sc.workers > 1 {
		sum /= int64(sc.workers)
	}
	return sum
}

// tenantsSnapshot renders the per-tenant table for /v1/stats.
func (sc *scheduler) tenantsSnapshot() map[string]TenantWire {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantWire, len(sc.tenants))
	for name, ts := range sc.tenants {
		out[name] = TenantWire{
			InSystem:       int64(ts.inSystem),
			Admitted:       ts.admitted,
			Rejected:       ts.rejected,
			Shed:           ts.shed,
			Solved:         ts.solved,
			Failed:         ts.failed,
			DeadlineMisses: ts.misses,
		}
	}
	return out
}

// jobHeap is the ready queue: a deadline-ordered heap under EDF (no
// deadline sorts last), arrival-ordered under fifo; ties break by
// arrival either way, so equal-deadline jobs keep FIFO fairness.
type jobHeap struct {
	jobs []*schedJob
	edf  bool
}

func (h *jobHeap) Len() int { return len(h.jobs) }

func (h *jobHeap) Less(i, k int) bool {
	a, b := h.jobs[i], h.jobs[k]
	if h.edf {
		switch {
		case a.deadline.IsZero() && !b.deadline.IsZero():
			return false
		case !a.deadline.IsZero() && b.deadline.IsZero():
			return true
		case !a.deadline.Equal(b.deadline):
			return a.deadline.Before(b.deadline)
		}
	}
	return a.seq < b.seq
}

func (h *jobHeap) Swap(i, k int) {
	h.jobs[i], h.jobs[k] = h.jobs[k], h.jobs[i]
	h.jobs[i].heapIdx = i
	h.jobs[k].heapIdx = k
}

func (h *jobHeap) Push(x any) {
	j := x.(*schedJob)
	j.heapIdx = len(h.jobs)
	h.jobs = append(h.jobs, j)
}

func (h *jobHeap) Pop() any {
	n := len(h.jobs) - 1
	j := h.jobs[n]
	h.jobs[n] = nil
	h.jobs = h.jobs[:n]
	j.heapIdx = -1
	return j
}
