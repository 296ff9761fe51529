package fault

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Named injection sites. Production code passes these to Visit; a chaos
// Plan selects which of them are armed.
const (
	// SiteCoreMethod fires inside the solve pipeline immediately before a
	// planned method runs — the spot where a buggy engine would fault.
	SiteCoreMethod = "core.method"
	// SiteCoreBatch fires in a SolveBatch worker before it claims work.
	SiteCoreBatch = "core.batch.worker"
	// SiteCorePortfolio fires in a portfolio racer before its engine runs.
	SiteCorePortfolio = "core.portfolio.engine"
	// SiteServiceSolve fires in the /v1/solve handler after admission,
	// exercising the HTTP-layer recover boundary.
	SiteServiceSolve = "service.solve"
)

// Kind is one fault flavor an armed site can execute.
type Kind uint8

const (
	// KindPanic panics with an Injected value; the solver's recover
	// boundaries must convert it to ErrEnginePanic.
	KindPanic Kind = iota
	// KindDelay sleeps briefly but honors context cancellation — a slow
	// but well-behaved engine.
	KindDelay
	// KindLeak stalls while IGNORING the context — a non-cooperative
	// engine that only the watchdog can reclaim.
	KindLeak
	// KindAllocSpike allocates and immediately drops a large buffer,
	// pressuring the GC mid-solve.
	KindAllocSpike
	kindCount
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindLeak:
		return "leak"
	case KindAllocSpike:
		return "allocSpike"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Injected is the value a KindPanic fault panics with, so recover
// boundaries (and tests) can tell injected panics from real bugs.
type Injected struct {
	Site  string
	Visit uint64
}

func (in Injected) Error() string {
	return fmt.Sprintf("fault: injected panic at %s (visit %d)", in.Site, in.Visit)
}

// Plan configures an Injector.
type Plan struct {
	// Seed makes the per-site fire sequence reproducible.
	Seed uint64
	// Rate is the per-visit fault probability in [0,1] (default 0.01).
	Rate float64
	// Sites limits injection to these site names; empty means every site.
	Sites []string
	// Kinds limits the fault flavors drawn; empty means all of them.
	Kinds []Kind
	// Delay is KindDelay's sleep (default 2ms).
	Delay time.Duration
	// Leak is KindLeak's context-ignoring stall (default 300ms).
	Leak time.Duration
	// AllocBytes is KindAllocSpike's transient allocation (default 8 MiB).
	AllocBytes int
}

func (p Plan) withDefaults() Plan {
	if p.Rate <= 0 {
		p.Rate = 0.01
	}
	if p.Rate > 1 {
		p.Rate = 1
	}
	if p.Delay <= 0 {
		p.Delay = 2 * time.Millisecond
	}
	if p.Leak <= 0 {
		p.Leak = 300 * time.Millisecond
	}
	if p.AllocBytes <= 0 {
		p.AllocBytes = 8 << 20
	}
	if len(p.Kinds) == 0 {
		p.Kinds = []Kind{KindPanic, KindDelay, KindLeak, KindAllocSpike}
	}
	return p
}

// siteDraw is the seeded per-(site, visit) decision both injectors
// share: visit v at site s fires iff splitmix64(seed^fnv(s)^(v·φ64))
// maps under rate, and a second scramble of the same hash picks the
// kind, so two runs with the same seed fault the same visits in the same
// way regardless of goroutine interleaving.
type siteDraw[K interface {
	~uint8
	String() string
}] struct {
	seed   uint64
	rate   float64
	kinds  []K             // the flavors drawn from
	sites  map[string]bool // nil = all sites armed
	visits sync.Map        // site -> *atomic.Uint64 visit counter
	fired  []atomic.Int64  // per kind value
}

func (d *siteDraw[K]) init(seed uint64, rate float64, sites []string, kinds []K, kindCount K) {
	d.seed, d.rate, d.kinds = seed, rate, kinds
	d.fired = make([]atomic.Int64, kindCount)
	if len(sites) > 0 {
		d.sites = make(map[string]bool, len(sites))
		for _, s := range sites {
			d.sites[s] = true
		}
	}
}

// visit draws the decision for one visit to site: whether to fault, and
// with which kind. Exposed unexported for determinism tests.
func (d *siteDraw[K]) visit(site string) (K, uint64, bool) {
	if d.sites != nil && !d.sites[site] {
		return 0, 0, false
	}
	cv, _ := d.visits.LoadOrStore(site, new(atomic.Uint64))
	v := cv.(*atomic.Uint64).Add(1)
	h := splitmix64(d.seed ^ fnvHash(site) ^ (v * 0x9e3779b97f4a7c15))
	// Top 53 bits → uniform float in [0,1).
	u := float64(h>>11) / (1 << 53)
	if u >= d.rate {
		return 0, v, false
	}
	// A second scramble picks the kind, so kind choice is uncorrelated
	// with the fire decision.
	k := d.kinds[splitmix64(h)%uint64(len(d.kinds))]
	d.fired[k].Add(1)
	return k, v, true
}

// Fired returns how many faults of each kind were drawn to fire (every
// drawn fault is executed at once by its caller).
func (d *siteDraw[K]) Fired() map[string]int64 {
	m := make(map[string]int64, len(d.fired))
	for k := range d.fired {
		if n := d.fired[k].Load(); n > 0 {
			m[K(k).String()] = n
		}
	}
	return m
}

// Injector executes a Plan. Sites draw independent deterministic
// sequences (see siteDraw).
type Injector struct {
	plan Plan
	siteDraw[Kind]
}

// NewInjector compiles a Plan.
func NewInjector(plan Plan) *Injector {
	inj := &Injector{plan: plan.withDefaults()}
	inj.init(inj.plan.Seed, inj.plan.Rate, inj.plan.Sites, inj.plan.Kinds, kindCount)
	return inj
}

// execute runs one fault in the calling goroutine.
func (inj *Injector) execute(ctx context.Context, site string, k Kind, v uint64) {
	switch k {
	case KindPanic:
		panic(Injected{Site: site, Visit: v})
	case KindDelay:
		t := time.NewTimer(inj.plan.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	case KindLeak:
		time.Sleep(inj.plan.Leak)
	case KindAllocSpike:
		spike := make([]byte, inj.plan.AllocBytes)
		// Touch one byte per page so the allocation is real, then drop it.
		for i := 0; i < len(spike); i += 4096 {
			spike[i] = 1
		}
		sink.Store(&spike[0])
		sink.Store(nil)
	}
}

// sink defeats dead-store elimination of the alloc spike.
var sink atomic.Pointer[byte]

// active is the process-wide injector consulted by Visit. nil (the
// steady state) makes Visit a single atomic load.
var active atomic.Pointer[Injector]

// Enable arms a Plan process-wide and returns its Injector (for Fired).
// Callers must Disable when done — chaos harnesses defer it.
func Enable(plan Plan) *Injector {
	inj := NewInjector(plan)
	active.Store(inj)
	return inj
}

// Disable disarms injection.
func Disable() { active.Store(nil) }

// Visit is the production-code hook: a no-op unless a Plan is armed and
// selects this visit. It may panic (KindPanic) — callers sit inside the
// recover boundaries this package exists to exercise.
func Visit(ctx context.Context, site string) {
	inj := active.Load()
	if inj == nil {
		return
	}
	if k, v, fire := inj.visit(site); fire {
		inj.execute(ctx, site, k, v)
	}
}

// splitmix64 is the standard 64-bit finalizing mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
