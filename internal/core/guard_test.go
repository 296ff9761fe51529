package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lpltsp/internal/fault"
	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
)

// panicMethod always panics inside Solve — the minimal buggy engine.
// Like the other test methods it applies only when explicitly pinned.
type panicMethod struct{}

const panicName MethodName = "test-panic"

func (panicMethod) Name() MethodName { return panicName }

func (panicMethod) Check(pr *Probe, p labeling.Vector, opts *Options) Applicability {
	if opts == nil || opts.Method != panicName {
		return Applicability{Reason: "test method; pin it explicitly"}
	}
	return Applicability{OK: true, Cost: 1, Reason: "test panic"}
}

func (panicMethod) Solve(ctx context.Context, pr *Probe, p labeling.Vector, opts *Options) (*Result, error) {
	panic("test-panic: boom")
}

// leakMethod ignores its context entirely and sleeps — the
// non-cooperative engine the watchdog exists for.
type leakMethod struct{}

const leakName MethodName = "test-leak"

var leakSleep atomic.Int64 // nanoseconds

func (leakMethod) Name() MethodName { return leakName }

func (leakMethod) Check(pr *Probe, p labeling.Vector, opts *Options) Applicability {
	if opts == nil || opts.Method != leakName {
		return Applicability{Reason: "test method; pin it explicitly"}
	}
	return Applicability{OK: true, Cost: 1, Reason: "test leak"}
}

func (leakMethod) Solve(ctx context.Context, pr *Probe, p labeling.Vector, opts *Options) (*Result, error) {
	time.Sleep(time.Duration(leakSleep.Load())) // deliberately ignores ctx
	lab, span, err := labeling.GreedyFirstFit(pr.G, p, labeling.OrderDegree)
	if err != nil {
		return nil, err
	}
	return &Result{Labeling: lab, Span: span, Method: leakName}, nil
}

var registerGuardOnce sync.Once

func registerGuardMethods() {
	registerGuardOnce.Do(func() {
		RegisterMethod(panicMethod{})
		RegisterMethod(leakMethod{})
	})
}

func guardTestGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	// Small enough that the auto-routed exact engine finishes instantly:
	// the healthy-path solves in these tests are scenery, not the subject.
	return graph.RandomSmallDiameter(rng.New(7), 12, 3, 0.3)
}

func TestPanicContainedUncached(t *testing.T) {
	registerGuardMethods()
	c := NewSolveCache(DefaultCacheCapacity)
	g := guardTestGraph(t)
	// NoCache: the panic is still counted on the solve's cache.
	_, err := Solve(g, labeling.Vector{2, 1}, &Options{Method: panicName, NoCache: true, Cache: c})
	if !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("err = %v, want ErrEnginePanic", err)
	}
	var pe *EnginePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T does not unwrap to *EnginePanicError", err)
	}
	if pe.Method != panicName {
		t.Fatalf("panic attributed to %q, want %q", pe.Method, panicName)
	}
	if pe.Stack == "" || !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("captured stack looks wrong: %q", pe.Stack)
	}
	if len(pe.Stack) > panicStackLimit {
		t.Fatalf("stack not truncated: %d bytes", len(pe.Stack))
	}
	if got := c.PanicCounts(); len(got) != 1 || got[panicName] != 1 {
		t.Fatalf("PanicCounts = %v, want exactly one panic under %s", got, panicName)
	}
}

// TestPanicContainedCoalesced exercises the detached singleflight leader
// goroutine's recover boundary: the panic happens off the caller's
// goroutine entirely, and still must come back as a typed error (to the
// leader AND to followers of the same flight).
func TestPanicContainedCoalesced(t *testing.T) {
	registerGuardMethods()
	opts := &Options{Method: panicName, Verify: true, Cache: NewSolveCache(DefaultCacheCapacity)}
	g := guardTestGraph(t)
	const callers = 8
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := Solve(g, labeling.Vector{2, 1}, opts)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrEnginePanic) {
			t.Fatalf("caller err = %v, want ErrEnginePanic", err)
		}
	}
	// Failed flights are not cached: the next solo call panics again.
	if _, err := Solve(g, labeling.Vector{2, 1}, opts); !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("repeat err = %v, want ErrEnginePanic", err)
	}
}

func TestBatchWorkerPanicContained(t *testing.T) {
	registerGuardMethods()
	c := NewSolveCache(DefaultCacheCapacity)
	g := guardTestGraph(t)
	items := []BatchItem{
		{ID: "ok-0", G: g, P: labeling.Vector{2, 1}},
		{ID: "boom", P: labeling.Vector{2, 1}, Load: func() (*graph.Graph, error) { panic("load: boom") }},
		{ID: "ok-1", G: g, P: labeling.Vector{2, 1}},
	}
	seen := map[string]error{}
	for br := range SolveBatch(context.Background(), items, &BatchOptions{Workers: 2, Options: &Options{Cache: c}}) {
		seen[br.ID] = br.Err
	}
	if len(seen) != len(items) {
		t.Fatalf("stream delivered %d results, want %d", len(seen), len(items))
	}
	if !errors.Is(seen["boom"], ErrEnginePanic) {
		t.Fatalf("panicking item err = %v, want ErrEnginePanic", seen["boom"])
	}
	if seen["ok-0"] != nil || seen["ok-1"] != nil {
		t.Fatalf("healthy items failed: %v / %v", seen["ok-0"], seen["ok-1"])
	}
	if got := c.PanicCounts()[panicSiteBatch]; got != 1 {
		t.Fatalf("PanicCounts[batch] = %d, want 1", got)
	}
}

// TestPortfolioRacerPanicContained injects a certain panic into every
// portfolio racer: the race must fail with an error, not kill the
// process, and the panics must be counted on the solve's own cache.
func TestPortfolioRacerPanicContained(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	fault.Enable(fault.Plan{Seed: 1, Rate: 1, Sites: []string{fault.SiteCorePortfolio}, Kinds: []fault.Kind{fault.KindPanic}})
	defer fault.Disable()
	g := guardTestGraph(t)
	opts := &Options{Method: MethodReduction, Algorithm: AlgoPortfolio, Cache: c}
	_, err := Solve(g, labeling.Vector{2, 1}, opts)
	if !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("portfolio with every racer panicking: err = %v, want ErrEnginePanic", err)
	}
	if got := c.PanicCounts()[MethodReduction]; got != int64(len(DefaultPortfolioEngines(g.N()))) {
		t.Fatalf("PanicCounts[%s] = %d, want one per racer (%d)", MethodReduction, got, len(DefaultPortfolioEngines(g.N())))
	}
}

// TestInjectedPanicAtCoreMethod drives the chaos harness's core
// injection site end to end through the planner.
func TestInjectedPanicAtCoreMethod(t *testing.T) {
	c := NewSolveCache(DefaultCacheCapacity)
	fault.Enable(fault.Plan{Seed: 1, Rate: 1, Sites: []string{fault.SiteCoreMethod}, Kinds: []fault.Kind{fault.KindPanic}})
	defer fault.Disable()
	g := guardTestGraph(t)
	_, err := Solve(g, labeling.Vector{2, 1}, &Options{Verify: true, Cache: c})
	if !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("err = %v, want ErrEnginePanic", err)
	}
	var pe *EnginePanicError
	if !errors.As(err, &pe) || pe.Method == "" || pe.Method == panicSitePipeline {
		t.Fatalf("injected panic not attributed to the planned method: %+v", err)
	}
	if _, ok := pe.Value.(fault.Injected); !ok {
		t.Fatalf("panic value %T, want fault.Injected", pe.Value)
	}
	if got := c.PanicCounts()[pe.Method]; got != 1 {
		t.Fatalf("PanicCounts[%s] = %d, want 1", pe.Method, got)
	}
}
