package core

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
)

// Panic containment. A panicking engine must cost its own request, not
// the process: every path that runs solver code — the caller's pipeline
// in SolveContext, the method body in runMethod, the detached
// singleflight leader goroutine, each portfolio racer, each batch worker
// — executes under a recover boundary that converts the panic into a
// typed *EnginePanicError (errors.Is-compatible with ErrEnginePanic)
// carrying the method name and a truncated stack. The serving layer maps
// it to a 500 with code "enginePanic" and feeds the poison quarantine;
// each panic is also counted per method on the SolveCache the solve runs
// through (SolveCache.PanicCounts), which feeds /v1/stats.

// ErrEnginePanic is the sentinel all contained solver panics wrap.
var ErrEnginePanic = errors.New("core: engine panicked during solve")

// Synthetic attribution names for panics caught outside a method body.
const (
	// panicSitePipeline tags panics in the planner pipeline itself
	// (probe, plan, cache, verification) rather than a method's Solve.
	panicSitePipeline MethodName = "pipeline"
	// panicSiteBatch tags panics in a batch worker outside SolveContext
	// (the item's Load callback, typically).
	panicSiteBatch MethodName = "batch"
)

// panicStackLimit truncates captured stacks: enough to locate the fault,
// small enough to log and carry on a wire error.
const panicStackLimit = 4096

// EnginePanicError is a contained solver panic.
type EnginePanicError struct {
	// Method attributes the panic: the method that was running, or one of
	// the synthetic sites ("pipeline", "batch").
	Method MethodName
	// Value is what the panic was called with.
	Value any
	// Stack is the panicking goroutine's stack, truncated to
	// panicStackLimit bytes.
	Stack string
}

func (e *EnginePanicError) Error() string {
	return fmt.Sprintf("core: engine panic in %s: %v", e.Method, e.Value)
}

func (e *EnginePanicError) Unwrap() error { return ErrEnginePanic }

// capturePanic builds the typed error for a recovered panic value and
// counts it on c, the cache the panicking solve runs through. Must be
// called from the deferred recover frame so the captured stack still
// shows the panic site.
func (c *SolveCache) capturePanic(method MethodName, v any) error {
	buf := make([]byte, panicStackLimit)
	n := runtime.Stack(buf, false)
	c.panicMu.Lock()
	c.panics[method]++
	c.panicMu.Unlock()
	return &EnginePanicError{Method: method, Value: v, Stack: string(buf[:n])}
}

// PanicCounts returns the contained panics of the solves run through
// this cache, per attributed method. Only methods that have actually
// panicked appear.
func (c *SolveCache) PanicCounts() map[MethodName]int64 {
	c.panicMu.Lock()
	defer c.panicMu.Unlock()
	return maps.Clone(c.panics)
}
