package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Active health probing: instead of discovering a dead backend by
// eating a transport error mid-request, the Prober probes every
// configured member's /readyz on a jittered interval and maintains a
// per-member state machine — healthy, degraded (failing but under the
// ejection threshold, or answering not-ready), ejected (gone from the
// ring). State transitions drive the router's existing SetRing path:
// the live set is the boot membership minus the ejected members, so
// ownership of an ejected node's keys remaps with consistent-hash
// minimality and traffic stops paying for the discovery per request.
// A member that answers FailThreshold consecutive probes is ejected; a
// member that answers RecoverThreshold consecutive probes after an
// ejection rejoins and its ownership is restored.
//
// The prober is deliberately tick-driven: Tick() runs one synchronous
// probe round (every member concurrently, each bounded by its own
// per-probe timeout), so tests and harnesses step it deterministically;
// Start() runs Tick on the jittered wall-clock interval.

// Member health states (ProbeStatus.State).
const (
	// HealthHealthy: the last probe answered 200.
	HealthHealthy = "healthy"
	// HealthDegraded: recent probes failed or answered not-ready, but
	// fewer than FailThreshold in a row — still in the ring, still
	// routed (the breaker layer handles per-request failures).
	HealthDegraded = "degraded"
	// HealthEjected: FailThreshold consecutive probe failures — removed
	// from the ring until RecoverThreshold consecutive successes.
	HealthEjected = "ejected"
)

// ProbeConfig shapes a Prober. The zero value means defaults.
type ProbeConfig struct {
	// Interval between probe rounds (default 1s).
	Interval time.Duration
	// Timeout bounds each member's probe; a blackholed backend costs one
	// timeout per round, never a stalled round (default Interval/4,
	// floored at 50ms).
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that ejects a
	// member from the ring (default 3).
	FailThreshold int
	// RecoverThreshold is the consecutive-success count that returns an
	// ejected member to the ring (default 2).
	RecoverThreshold int
	// Seed drives the interval jitter (so a fleet of probers does not
	// synchronize) — defaults to the ring seed of the router probed.
	Seed uint64
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 4
		if c.Timeout < 50*time.Millisecond {
			c.Timeout = 50 * time.Millisecond
		}
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = 2
	}
	return c
}

// memberHealth is one member's probe bookkeeping.
type memberHealth struct {
	state     string
	fails     int // consecutive probe failures
	successes int // consecutive probe successes
	lastErr   string
}

// ProbeStatus is one member's externally visible health.
type ProbeStatus struct {
	State string `json:"state"`
	// LastError is the most recent probe failure ("" while healthy).
	LastError string `json:"lastError,omitempty"`
}

// HealthStats is the prober block of RouterStats.
type HealthStats struct {
	Members map[string]ProbeStatus `json:"members,omitempty"`
	// Probes counts completed probe rounds; Ejections and Revivals the
	// ring-changing transitions.
	Probes    int64 `json:"probes"`
	Ejections int64 `json:"ejections"`
	Revivals  int64 `json:"revivals"`
}

// Prober owns the health state of one router's backends.
type Prober struct {
	rt  *Router
	cfg ProbeConfig

	mu      sync.Mutex
	members map[string]*memberHealth

	probes    atomic.Int64
	ejections atomic.Int64
	revivals  atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewProber builds a prober over the router's full boot-time membership
// and registers it as the router's health authority: /readyz and the
// stats health block answer from prober state instead of live probes.
// Call Tick for one synchronous round or Start for the background loop.
func NewProber(rt *Router, cfg ProbeConfig) *Prober {
	cfg = cfg.withDefaults()
	if cfg.Seed == 0 {
		cfg.Seed = rt.fullCfg.Seed
	}
	p := &Prober{
		rt:      rt,
		cfg:     cfg,
		members: make(map[string]*memberHealth, len(rt.fullCfg.Members)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, m := range rt.fullCfg.Members {
		p.members[m] = &memberHealth{state: HealthHealthy}
	}
	rt.prober.Store(p)
	return p
}

// probe runs one /readyz round trip per named member, concurrently,
// each bounded by timeout, and returns each member's failure: a
// transport error, a timeout, or a non-200.
func (rt *Router) probe(ctx context.Context, names []string, timeout time.Duration) []error {
	one := func(name string) error {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://backend/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := rt.backends[name].Doer.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("not ready (status %d)", resp.StatusCode)
		}
		return nil
	}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = one(name)
		}()
	}
	wg.Wait()
	return errs
}

// Tick runs one synchronous probe round: every member probed
// concurrently (each under its own timeout), states updated, and the
// ring swapped when the live set changed. Returns whether the round
// changed ring membership.
func (p *Prober) Tick(ctx context.Context) bool {
	names := p.rt.fullCfg.Members
	errs := p.rt.probe(ctx, names, p.cfg.Timeout)
	p.probes.Add(1)

	p.mu.Lock()
	changed := false
	for i, name := range names {
		mh := p.members[name]
		if errs[i] == nil {
			mh.fails = 0
			mh.successes++
			mh.lastErr = ""
			switch mh.state {
			case HealthEjected:
				if mh.successes >= p.cfg.RecoverThreshold {
					mh.state = HealthHealthy
					p.revivals.Add(1)
					changed = true
				}
			case HealthDegraded:
				mh.state = HealthHealthy
			}
			continue
		}
		mh.successes = 0
		mh.fails++
		mh.lastErr = errs[i].Error()
		if mh.state != HealthEjected {
			if mh.fails >= p.cfg.FailThreshold {
				mh.state = HealthEjected
				p.ejections.Add(1)
				changed = true
			} else {
				mh.state = HealthDegraded
			}
		}
	}
	var live []string
	if changed {
		for _, name := range names {
			if p.members[name].state != HealthEjected {
				live = append(live, name)
			}
		}
	}
	p.mu.Unlock()

	if !changed {
		return false
	}
	if len(live) == 0 {
		// Every member is ejected: keep the last ring rather than route
		// nowhere — the breakers fail those requests fast, and the first
		// revival swaps a real ring back in.
		return false
	}
	ring, err := NewRing(RingConfig{Members: live, VNodes: p.rt.fullCfg.VNodes, Seed: p.rt.fullCfg.Seed})
	if err != nil {
		return false
	}
	return p.rt.SetRing(ring) == nil
}

// Start runs the probe loop on the jittered interval until Stop (or a
// second Start is a no-op). Jitter is ±25% of the interval, drawn from
// the seeded mix so a fleet of probers desynchronizes deterministically.
func (p *Prober) Start() {
	p.startOnce.Do(func() {
		go func() {
			defer close(p.done)
			ctx := context.Background()
			var n uint64
			for {
				n++
				// interval * (0.75 + 0.5u) for u in [0,1).
				u := float64(mix64(p.cfg.Seed^n)>>11) / (1 << 53)
				d := time.Duration(float64(p.cfg.Interval) * (0.75 + 0.5*u))
				t := time.NewTimer(d)
				select {
				case <-p.stop:
					t.Stop()
					return
				case <-t.C:
				}
				p.Tick(ctx)
			}
		}()
	})
}

// Stop halts the probe loop and waits for it to exit. Safe to call
// multiple times, and before Start (the loop just never runs).
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	select {
	case <-p.done:
	default:
		p.startOnce.Do(func() { close(p.done) }) // never started
		<-p.done
	}
}

// Snapshot returns every member's current health.
func (p *Prober) Snapshot() map[string]ProbeStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]ProbeStatus, len(p.members))
	for name, mh := range p.members {
		out[name] = ProbeStatus{State: mh.state, LastError: mh.lastErr}
	}
	return out
}

// Stats snapshots the prober counters and member states.
func (p *Prober) Stats() HealthStats {
	return HealthStats{
		Members:   p.Snapshot(),
		Probes:    p.probes.Load(),
		Ejections: p.ejections.Load(),
		Revivals:  p.revivals.Load(),
	}
}
