package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

const benchPath = "../../BENCHMARK.json"

// TestSmokeEmitsBenchmarkMetrics runs every workload at smoke scale with
// the traced run and checks that each metric BENCHMARK.json names is
// reported with its unit, that no response failed verification, and that
// the driver line is the last line of output.
func TestSmokeEmitsBenchmarkMetrics(t *testing.T) {
	b, err := loadBench(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := filepath.Join(dir, w.Name+".json")
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-smoke", "-seconds", "1", "-trace", "-dir", dir, "-out", out, "-bench", benchPath}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var rec RunRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			wr := rec.Workloads[0]
			if !wr.Correct || wr.Unverified != 0 {
				t.Fatalf("verification failures: %d", wr.Unverified)
			}
			for _, m := range b.EndToEnd {
				if got, ok := wr.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			for _, m := range b.PerLayer {
				if got, ok := wr.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
				t.Error(err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   *bool             `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]Metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the driver JSON: %v", err)
			}
			if last.Correct == nil || last.Failed == nil || last.Attempted < 1 || len(last.Metrics) != len(b.PerLayer) {
				t.Errorf("driver line incomplete: %s", lines[len(lines)-1])
			}
		})
	}
}

// TestOpenLoopCountsStall checks the open loop against coordinated
// omission: a serialized handler stalls 100 ms once, and every request due
// during the stall must carry the wait it caused in its latency.
func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	var mu sync.Mutex
	calls := 0
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 50 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	})
	// 1000 req/s for 400 ms.
	arr := make([]arrival, 400)
	q := &request{kind: kindRef, body: []byte("{}")}
	for i := range arr {
		arr[i] = arrival{at: time.Duration(i) * time.Millisecond, req: q}
	}
	run := runOpen(func(*request) http.Handler { return stub }, arr)
	// The 50th call starts at ~49 ms and holds the handler until ~149 ms.
	stallStart := arr[49].at
	stallEnd := stallStart + stall
	checked := 0
	for i, a := range arr {
		if a.at <= stallStart+5*time.Millisecond || a.at >= stallEnd-10*time.Millisecond {
			continue
		}
		checked++
		if want := stallEnd - a.at - 5*time.Millisecond; run.out[i].lat < want {
			t.Errorf("request due at %v: latency %v, want at least %v", a.at, run.out[i].lat, want)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d requests fell inside the stall", checked)
	}
}

// TestBenchmarkJSONContract checks BENCHMARK.json's shape against the
// catalogue this package emits.
func TestBenchmarkJSONContract(t *testing.T) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("missing key %s", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
	b, err := loadBench(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if float64(b.Seconds) != spec.RunSeconds {
		t.Errorf("run_seconds %d, workloads.json %v", b.Seconds, spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %q differs from workloads.json", w.Name)
		}
	}
	catalogue := map[string]metricDef{}
	for _, m := range endToEnd {
		catalogue[m.Name] = m
	}
	for _, m := range b.EndToEnd {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated name %q", m.Name)
		}
		seen[m.Name] = true
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != catalogue[m.Name] {
			t.Errorf("BENCHMARK.json has %+v, the catalogue %+v", got, catalogue[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
	for _, m := range b.PerLayer {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated name %q", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3}, [3]float64{1, 3, 4}},
		{[]float64{2, 8}, [3]float64{0.5, 5, 9.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		cur    []float64
		better string
		want   string
	}{
		{[]float64{100, 101, 100, 99, 101}, "lower", "within"},
		{[]float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{[]float64{120, 121, 119, 120, 122}, "higher", "better"},
		{[]float64{60, 140, 100, 80, 120}, "lower", "unresolved"},
	} {
		if got := classify(base, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("classify(%v, %s) = %s, want %s", c.cur, c.better, got, c.want)
		}
	}
}
