package bench

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

// scenario returns the named scenario at smoke scale.
func scenario(t testing.TB, name string) Scenario {
	t.Helper()
	s, err := Lookup(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustRun runs s and fails on a set-up error or a broken invariant.
func mustRun(t testing.TB, s Scenario) *Report {
	t.Helper()
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("invariants violated:\n%s", rep)
	}
	return rep
}

// withPrefix returns the metrics whose names start with prefix.
func withPrefix(rep *Report, prefix string) map[string]float64 {
	m := map[string]float64{}
	for k, v := range rep.Metrics {
		if strings.HasPrefix(k, prefix) {
			m[k] = v
		}
	}
	return m
}

func TestUnknownScenario(t *testing.T) {
	if _, err := Lookup("carrier-pigeon", 0); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRankIndex(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1060, 0.99, 1049}, {10, 0.51, 5}, {30, 0.95, 28}, {100, 0.5, 49}, {1, 0.99, 0}} {
		if got := rankIndex(c.n, c.p); got != c.want {
			t.Errorf("rankIndex(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// TestRunLoadModes drives every load traffic shape: each completes with
// only 200s, graphRef traffic resolves against the intern store, and
// the compact modes shrink the wire.
func TestRunLoadModes(t *testing.T) {
	reps := map[string]*Report{}
	for _, name := range []string{"load-json", "load-graphref", "load-binary"} {
		s := scenario(t, name)
		// Tiny instances: a plumbing test, and each distinct instance
		// costs one cold solve.
		s.Clients, s.Requests, s.Distinct, s.N = 4, 32, 2, 10
		reps[name] = mustRun(t, s)
		if out := reps[name].String(); !strings.Contains(out, name) || !strings.Contains(out, "bytesPerReq") {
			t.Fatalf("report rendering lost fields:\n%s", out)
		}
	}
	if hits := reps["load-graphref"].Nodes[0].Stats.Graphs.Hits; hits != 32 {
		t.Fatalf("graphref run resolved %d refs, want 32", hits)
	}
	for _, name := range []string{"load-graphref", "load-binary"} {
		if got, json := reps[name].Metrics["bytesPerReq"], reps["load-json"].Metrics["bytesPerReq"]; got >= json {
			t.Fatalf("%s bodies (%.0f B) not smaller than full JSON (%.0f B)", name, got, json)
		}
	}
}

// TestChaosLoad is the containment acceptance run: retrying clients push
// mixed solo/batch/poison/stall traffic through a handler with the fault
// plan armed at every injection site, and the scenario's invariants hold.
func TestChaosLoad(t *testing.T) {
	s := scenario(t, "chaos")
	s.Requests, s.Seed = 800, 7
	rep := mustRun(t, s)
	if rep.ByStatus[200] == 0 {
		t.Fatalf("no healthy traffic succeeded:\n%s", rep)
	}
	// The poison engine fails deterministically: the first hits are 500
	// enginePanic, everything after the threshold is fast-failed.
	if rep.ByCode["enginePanic"] == 0 || rep.ByCode["quarantined"] == 0 {
		t.Fatalf("poison lifecycle missing:\n%s", rep)
	}
	if len(withPrefix(rep, "injected.")) == 0 {
		t.Fatalf("fault plan never fired:\n%s", rep)
	}
	if f := rep.Nodes[0].Stats.Fault; f.Quarantine.Trips == 0 || f.EnginePanics == 0 {
		t.Fatalf("server-side fault accounting empty:\n%s", rep)
	}
	out := rep.String()
	for _, want := range []string{"chaos", "quarantined", "invariants OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report rendering missing %q:\n%s", want, out)
		}
	}
}

// TestChaosDeterministicInjection: two single-client runs with the same
// seed execute the same number of faults of each kind — what makes a
// chaos failure replayable. (One client, because under concurrency the
// visits a site receives depend on how requests coalesce.)
func TestChaosDeterministicInjection(t *testing.T) {
	injected := func() map[string]float64 {
		s := scenario(t, "chaos")
		s.Clients, s.Requests, s.Seed = 1, 120, 11
		rep, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return withPrefix(rep, "injected.")
	}
	if a, b := injected(), injected(); !maps.Equal(a, b) {
		t.Fatalf("same seed fired %v then %v", a, b)
	}
}

// A routed run: nothing errors, the per-backend counters account for
// every distinct solve, and routed traffic always lands on the owner, so
// the L2 never fires.
func TestRunClusterRouted(t *testing.T) {
	s := scenario(t, "cluster-ladder")
	s.sweep = nil
	s.Backends, s.Clients, s.Requests, s.Distinct, s.N, s.Floor = 2, 8, 32, 32, 16, time.Millisecond
	rep := mustRun(t, s)
	var solved int64
	for _, n := range rep.Nodes {
		solved += n.Stats.Solved
		if n.Stats.Cache.L2Served != 0 || n.Stats.Cache.L2Fallbacks != 0 {
			t.Errorf("routed traffic touched %s's L2: %+v", n.Name, n.Stats.Cache)
		}
	}
	if solved != 32 {
		t.Errorf("backends solved %d total, want 32 (one per distinct instance)", solved)
	}
	if l := rep.Latency; l.P50 <= 0 || l.P99 < l.P50 {
		t.Errorf("implausible latency summary: %+v", l)
	}
	if rep.Router == nil || rep.Router.Proxied == 0 {
		t.Error("router proxied counter is zero")
	}
}

// The router-overhead baseline: the same node config with no router.
func TestRunClusterDirect(t *testing.T) {
	s := scenario(t, "cluster-ladder")
	s.sweep = nil
	s.Backends, s.Clients, s.Requests, s.Distinct, s.N, s.Floor = 0, 4, 64, 8, 16, 0
	rep := mustRun(t, s)
	if rep.Router != nil || len(rep.Nodes) != 1 || rep.Nodes[0].Stats.Solved != 64 {
		t.Fatalf("direct run: router %v, nodes %d, solved %d", rep.Router, len(rep.Nodes), rep.Nodes[0].Stats.Solved)
	}
}

// checkHealed runs a kill/stall/revive pass and requires every
// self-healing invariant plus a full eject/revive cycle of both victims.
func checkHealed(t *testing.T, s Scenario) *Report {
	rep := mustRun(t, s)
	t.Logf("\n%s", rep)
	if rep.ByStatus[200] == 0 {
		t.Fatalf("no successful traffic: %v", rep.ByStatus)
	}
	if h := rep.Router.Health; h == nil || h.Ejections < 2 || h.Revivals < 2 {
		t.Fatalf("prober did not run the kill/stall/revive cycle: %+v", h)
	}
	return rep
}

func TestClusterChaos(t *testing.T) {
	checkHealed(t, scenario(t, "cluster-chaos"))
}

// With network faults off, failures are harness bugs, not injected chaos.
func TestClusterChaosNoNetFaults(t *testing.T) {
	s := scenario(t, "cluster-chaos")
	s.Clients, s.Distinct, s.N, s.Seed, s.NetRate = 6, 6, 12, 7, 0
	if net := withPrefix(checkHealed(t, s), "net."); len(net) != 0 {
		t.Fatalf("network faults fired with NetRate 0: %v", net)
	}
}

// A small mixed-deadline run accounts for every request exactly once
// under both policies. The EDF-beats-FIFO claim itself is checked at full
// scale by the deadline scenario, not at smoke scale.
func TestDeadlineLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	for _, policy := range []string{"fifo", "edf"} {
		s := scenario(t, "deadline")
		s.sweep = nil
		s.Clients, s.Requests, s.Server.Sched = 8, 96, policy
		rep := mustRun(t, s)
		m := rep.Metrics
		if got := rep.Nodes[0].Stats.Sched.Policy; got != policy {
			t.Fatalf("server policy %q, want %q", got, policy)
		}
		if got := m["completed"] + m["expired"] + m["rejected"]; got != 96 {
			t.Fatalf("%s: %v outcomes for 96 requests", policy, got)
		}
		if m["useful"]+m["misses"] != m["completed"]+m["expired"] || m["tightHit"] > m["tightTotal"] {
			t.Fatalf("%s: inconsistent metrics %v", policy, m)
		}
		if m["useful"] > 0 && m["usefulPerSec"] <= 0 {
			t.Fatalf("%s: useful work without throughput", policy)
		}
	}
}

// BenchmarkDeadlineLoad keeps the mixed-deadline scenario in the bench
// smoke net: one iteration runs EDF end to end and reports the headline
// metrics.
func BenchmarkDeadlineLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := scenario(b, "deadline")
		s.sweep = nil
		s.Clients, s.Requests, s.Server.Sched = 8, 64, "edf"
		rep := mustRun(b, s)
		b.ReportMetric(rep.Metrics["missRate"], "missRate")
		b.ReportMetric(rep.Metrics["usefulPerSec"], "useful/s")
	}
}

// Both policies must see the byte-identical workload: the tight/loose
// assignment and bodies derive from the seed alone.
func TestDeadlineWorkloadDeterministic(t *testing.T) {
	s := scenario(t, "deadline")
	s.Requests = 64
	draw := func() ([]op, []op) {
		ops, warmup, err := s.traffic(&run{s: s, rep: newReport(s)})
		if err != nil {
			t.Fatal(err)
		}
		return ops, warmup
	}
	same := func(a, b op) bool { return bytes.Equal(a.body, b.body) && a.deadline == b.deadline }
	o1, w1 := draw()
	o2, w2 := draw()
	if !slices.EqualFunc(o1, o2, same) || !slices.EqualFunc(w1, w2, same) {
		t.Fatal("workload differs across identical scenarios")
	}
	tight := 0
	for _, o := range o1 {
		if o.deadline == tightBudget {
			tight++
		}
	}
	// ~30% of 64 requests tight, with generous slack for the draw.
	if tight < 8 || tight > 40 {
		t.Fatalf("tight count %d of %d outside the plausible band", tight, len(o1))
	}
}
