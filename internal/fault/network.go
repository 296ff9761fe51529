package fault

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Network-level fault injection for the cluster transport. Where
// Injector faults *inside* a node (panics, stalls, alloc spikes), the
// NetInjector faults the wire *between* nodes: a FaultyDoer wraps any
// cluster transport (anything with Do) and, per the same seeded
// per-(site, visit) draw as Injector, drops the request, delays it,
// blackholes it until the caller's context gives up, or answers with a
// synthesized gateway 503 without ever reaching the backend. Sites are
// conventionally named "net.<backend>", one per wrapped transport, so a
// plan can target a single link.
//
// Determinism contract (identical to Injector): visit v at site s fires
// iff splitmix64(seed ^ fnv(s) ^ (v·φ64)) maps under Rate, so two runs
// with the same seed fault the same visits in the same way regardless
// of goroutine interleaving.

// NetKind is one network fault flavor.
type NetKind uint8

const (
	// NetDrop fails the request immediately with a transport error — a
	// refused connection.
	NetDrop NetKind = iota
	// NetDelay holds the request for the plan's Delay (honoring the
	// request context) and then forwards it — a slow link.
	NetDelay
	// NetBlackhole never forwards and never answers: it waits for the
	// request's context to give up (bounded by BlackholeMax so a
	// context-less request cannot wedge), then returns the context
	// error — a gray failure only per-attempt timeouts can handle.
	NetBlackhole
	// NetFlaky5xx answers 503 without reaching the backend — a sick
	// intermediary.
	NetFlaky5xx
	netKindCount
)

func (k NetKind) String() string {
	switch k {
	case NetDrop:
		return "drop"
	case NetDelay:
		return "delay"
	case NetBlackhole:
		return "blackhole"
	case NetFlaky5xx:
		return "flaky5xx"
	default:
		return fmt.Sprintf("NetKind(%d)", uint8(k))
	}
}

// Doer is the transport seam this package wraps. It is structurally
// identical to cluster.Doer (re-declared here so fault stays below
// cluster in the import graph).
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// NetPlan configures a NetInjector.
type NetPlan struct {
	// Seed makes the per-site fault sequence reproducible.
	Seed uint64
	// Rate is the per-request fault probability in [0,1] (default 0.01).
	Rate float64
	// Sites limits injection to these site names; empty means every site.
	Sites []string
	// Kinds limits the fault flavors drawn; empty means all of them.
	Kinds []NetKind
	// Delay is NetDelay's hold (default 20ms).
	Delay time.Duration
	// BlackholeMax bounds NetBlackhole for context-less requests
	// (default 2s).
	BlackholeMax time.Duration
}

func (p NetPlan) withDefaults() NetPlan {
	if p.Rate <= 0 {
		p.Rate = 0.01
	}
	if p.Rate > 1 {
		p.Rate = 1
	}
	if p.Delay <= 0 {
		p.Delay = 20 * time.Millisecond
	}
	if p.BlackholeMax <= 0 {
		p.BlackholeMax = 2 * time.Second
	}
	if len(p.Kinds) == 0 {
		p.Kinds = []NetKind{NetDrop, NetDelay, NetBlackhole, NetFlaky5xx}
	}
	return p
}

// Dropped is the transport error a NetDrop fault returns, so callers
// (and tests) can tell injected drops from real transport failures.
type Dropped struct {
	Site  string
	Visit uint64
}

func (d Dropped) Error() string {
	return fmt.Sprintf("fault: injected drop at %s (visit %d)", d.Site, d.Visit)
}

// NetInjector executes a NetPlan across any number of wrapped
// transports. Sites draw independent deterministic sequences exactly
// like Injector's.
type NetInjector struct {
	plan NetPlan
	siteDraw[NetKind]
}

// NewNetInjector compiles a NetPlan.
func NewNetInjector(plan NetPlan) *NetInjector {
	inj := &NetInjector{plan: plan.withDefaults()}
	inj.init(inj.plan.Seed, inj.plan.Rate, inj.plan.Sites, inj.plan.Kinds, netKindCount)
	return inj
}

// Wrap returns a FaultyDoer injecting this plan's faults at the named
// site in front of next.
func (inj *NetInjector) Wrap(site string, next Doer) *FaultyDoer {
	return &FaultyDoer{site: site, inj: inj, next: next}
}

// FaultyDoer is one wrapped transport link. It implements Doer (and so
// cluster.Doer).
type FaultyDoer struct {
	site string
	inj  *NetInjector
	next Doer
}

// Do consults the injector for this request's visit and either executes
// the drawn fault or forwards to the wrapped transport.
func (fd *FaultyDoer) Do(req *http.Request) (*http.Response, error) {
	k, v, fire := fd.inj.visit(fd.site)
	if !fire {
		return fd.next.Do(req)
	}
	ctx := req.Context()
	switch k {
	case NetDrop:
		return nil, Dropped{Site: fd.site, Visit: v}
	case NetDelay:
		t := time.NewTimer(fd.inj.plan.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fd.next.Do(req)
	case NetBlackhole:
		t := time.NewTimer(fd.inj.plan.BlackholeMax)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
			return nil, fmt.Errorf("fault: blackhole at %s gave up after %v (visit %d)", fd.site, fd.inj.plan.BlackholeMax, v)
		}
	default: // NetFlaky5xx
		body := fmt.Sprintf(`{"error":"injected 503 at %s (visit %d)","code":"fault"}`+"\n", fd.site, v)
		return &http.Response{
			StatusCode:    http.StatusServiceUnavailable,
			Status:        "503 Service Unavailable",
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
}
