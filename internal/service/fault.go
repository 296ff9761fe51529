package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lpltsp/internal/fault"
)

// Failure-domain plumbing for the serving layer: the HTTP-level recover
// boundary, poison-instance quarantine, stuck/panic error classification,
// the drain-rate Retry-After hint, and the /readyz signal. The policy
// (what counts as poison, when to fail fast, when to report unready)
// lives here; the mechanisms (recover boundaries, the watchdog, the
// quarantine tracker) live in internal/core and internal/fault.

// Machine-readable error codes introduced by the fault-containment layer
// (joining codeUnknownGraphRef in service.go).
const (
	// codeEnginePanic: the solve panicked and was contained; the process
	// is fine, this instance+options is suspect (500).
	codeEnginePanic = "enginePanic"
	// codeStuckSolve: the solve overran deadline×grace without honoring
	// cancellation and was force-failed by the watchdog (408).
	codeStuckSolve = "stuckSolve"
	// codeQuarantined: this exact instance+options recently crashed or
	// wedged K times and is fast-failed without solving (422).
	codeQuarantined = "quarantined"
	// codeHandlerPanic: a panic escaped everything else and was caught at
	// the HTTP boundary (500).
	codeHandlerPanic = "panic"
)

// guardedWriter tracks whether any response bytes/headers were sent, so
// the ServeHTTP recover boundary knows if a clean 500 is still possible.
// It passes Flush through so NDJSON batch streaming keeps working.
type guardedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (g *guardedWriter) WriteHeader(status int) {
	g.wrote = true
	g.ResponseWriter.WriteHeader(status)
}

func (g *guardedWriter) Write(p []byte) (int, error) {
	g.wrote = true
	return g.ResponseWriter.Write(p)
}

func (g *guardedWriter) Flush() {
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// quarantineKey is the poison identity: the structural fingerprint of
// the graph plus everything about the request that changes which code
// runs (p, method, algorithm, roster). Two requests with the same key
// would crash the same way; a different p or engine deserves a fresh
// chance.
func quarantineKey(req *SolveRequest) string {
	var b strings.Builder
	if req.Graph != nil {
		lo, hi := req.Graph.Fingerprint()
		b.WriteString(strconv.FormatUint(lo, 16))
		b.WriteByte('.')
		b.WriteString(strconv.FormatUint(hi, 16))
	}
	b.WriteString("|p=")
	for _, x := range req.P {
		b.WriteString(strconv.Itoa(x))
		b.WriteByte(',')
	}
	if o := req.Options; o != nil {
		b.WriteString("|m=")
		b.WriteString(o.Method)
		b.WriteString("|a=")
		b.WriteString(o.Algorithm)
		for _, e := range o.Engines {
			b.WriteByte('+')
			b.WriteString(e)
		}
	}
	return b.String()
}

// recordFailure counts a failed job and feeds containment failures
// (engine panics, watchdog kills) to their counters and the quarantine.
// Only these are evidence of a poison instance: applicability errors and
// client deadlines are the request's business.
func (s *Server) recordFailure(key string, err error) {
	s.failed.Add(1)
	_, code := errorReply(err)
	switch code {
	case codeEnginePanic:
		s.enginePanics.Add(1)
	case codeStuckSolve:
		s.stuckSolves.Add(1)
	default:
		return
	}
	if s.quarantine != nil {
		s.quarantine.Record(key, code)
	}
}

// observeServiceTime folds one completed solve's wall time into the
// EWMA behind the Retry-After hint (α = 1/8: jumpy enough to track load
// shifts, smooth enough to ignore one slow solve).
func (s *Server) observeServiceTime(d time.Duration) {
	n := int64(d)
	if n <= 0 {
		n = 1
	}
	for {
		old := s.ewmaNs.Load()
		next := n
		if old > 0 {
			next = old + (n-old)/8
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates when a rejected client should come back,
// from the real drain schedule: every job in the system contributes its
// learned service-time prediction (EWMA fallback when the model has
// none), the sum is divided across the worker pool, and the result is
// clamped to [1, 30]. Cold start is explicit: with zero observations
// (no predictions, no EWMA) the estimate is 0 and the clamp floor of 1s
// stands — never a hint computed from uninitialized state.
func (s *Server) retryAfterSeconds() int {
	est := time.Duration(s.sched.drainEstimateNs(s.ewmaNs.Load()))
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// notReadyReason decides /readyz: non-empty means a load balancer should
// drain this instance — the admission queue is near saturation, or
// instances keep tripping the quarantine (a poison workload or a sick
// process; either way traffic is better off elsewhere).
func (s *Server) notReadyReason() string {
	occ := s.sched.queued.Load() + s.sched.inFlight.Load()
	high := int64(math.Ceil(s.cfg.ReadyHighWater * float64(s.cfg.QueueDepth)))
	if occ >= high {
		return fmt.Sprintf("admission queue saturated: %d of %d jobs in system (high water %d)",
			occ, s.cfg.QueueDepth, high)
	}
	if s.quarantine != nil && s.cfg.ReadyMaxTrips > 0 {
		if trips := s.quarantine.TripsWithin(s.cfg.ReadyTripWindow); trips >= s.cfg.ReadyMaxTrips {
			return fmt.Sprintf("quarantine trip rate elevated: %d trips in the last %v (limit %d)",
				trips, s.cfg.ReadyTripWindow, s.cfg.ReadyMaxTrips)
		}
	}
	return ""
}

// handleReady serves GET /readyz: 200 while the instance should receive
// traffic, 503 with a JSON reason while it should be drained. Distinct
// from /healthz, which answers "is the process alive" and stays 200
// through overload — restarting a merely busy instance helps nobody.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	resp := ReadyResponse{Ready: true}
	if reason := s.notReadyReason(); reason != "" {
		resp = ReadyResponse{Ready: false, Reason: reason}
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// faultStats assembles the /v1/stats fault block.
func (s *Server) faultStats() FaultWire {
	fw := FaultWire{
		HandlerPanics: s.handlerPanics.Load(),
		EnginePanics:  s.enginePanics.Load(),
		StuckSolves:   s.stuckSolves.Load(),
		WatchdogKills: s.cfg.Cache.WatchdogKillCount(),
	}
	if pc := s.cfg.Cache.PanicCounts(); len(pc) > 0 {
		fw.PanicsByMethod = make(map[string]int64, len(pc))
		for k, v := range pc {
			fw.PanicsByMethod[string(k)] = v
		}
	}
	if s.quarantine != nil {
		st := s.quarantine.Stats()
		fw.Quarantine = QuarantineWire{
			Enabled:     true,
			Threshold:   st.Threshold,
			TTLSeconds:  st.TTLSeconds,
			Tracked:     st.Tracked,
			Active:      st.Active,
			Trips:       st.Trips,
			FastFails:   st.FastFails,
			RecentTrips: s.quarantine.TripsWithin(s.cfg.ReadyTripWindow),
		}
	}
	return fw
}

// armFaultLayer finishes NewServer: quarantine construction and arming
// the watchdog of the server's cache from the resolved config.
func (s *Server) armFaultLayer() {
	if s.cfg.QuarantineThreshold >= 0 {
		s.quarantine = fault.NewQuarantine(fault.Config{
			Threshold: s.cfg.QuarantineThreshold,
			TTL:       s.cfg.QuarantineTTL,
		})
	}
	if s.cfg.WatchdogGrace > 0 {
		s.cfg.Cache.SetWatchdogGrace(s.cfg.WatchdogGrace)
	}
}
