package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// workloads.json freezes everything a run needs besides the seed and the
// run length: step rates, SLOs, tail percentiles, working-set sizes. The
// rates are absolute req/s measured once on the seed commit, so a parent
// and a change always receive identical load.
//
//go:embed workloads.json
var specJSON []byte

// Spec is the decoded workloads.json.
type Spec struct {
	Seed          uint64         `json:"seed"`
	RunSeconds    float64        `json:"run_seconds"`
	SetupRepeats  int            `json:"setup_repeats"`
	Rounds        int            `json:"rounds"`
	CapacityShare float64        `json:"capacity_share"`
	Steps         []StepSpec     `json:"steps"`
	Workloads     []WorkloadSpec `json:"workloads"`
}

// StepSpec is one open-loop step and its share of the run length.
type StepSpec struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
}

// WorkloadSpec is one traffic mix. workloads.json also describes each
// mix and maps every layer's metrics to the end-to-end metrics they should
// move and the workloads that show it; the program does not read those.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// CapacityRPS is the seed commit's median capacity_rps; it sizes the
	// pools of never-repeated requests the closed loop draws from.
	CapacityRPS float64            `json:"capacity_rps"`
	RatesRPS    map[string]float64 `json:"rates_rps"`
	SLOms       float64            `json:"slo_ms"`
	TailPct     float64            `json:"tail_pct"`
	TraceN      int                `json:"trace_requests"`
}

func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &s, nil
}

func (s *Spec) workload(name string) (*WorkloadSpec, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// phaseDuration is how long one round spends in a phase (a step, or the
// closed loop) given the phase's share of the measured run length.
func (s *Spec) phaseDuration(seconds, share float64) time.Duration {
	return time.Duration(share * seconds / float64(s.Rounds) * float64(time.Second))
}

// Metric is one named value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef is a catalogue entry: unit and which direction is better.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is the catalogue of end-to-end metrics every workload reports.
// BENCHMARK.json gates the subset whose run-to-run spread on a shared
// machine stays well inside a bound; the run record keeps them all.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"capacity_rps", "req/s", "higher"},
	{"max_rate_rps", "req/s", "higher"},
	{"goodput_rps.high", "req/s", "higher"},
	{"p50_ms.mid", "ms", "lower"},
	{"p50_ms.high", "ms", "lower"},
	{"tail_ms.mid", "ms", "lower"},
	{"tail_ms.high", "ms", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"span_ratio", "ratio", "lower"},
	{"exact_ratio", "ratio", "higher"},
	{"heap_live_mb", "MB", "lower"},
}

// Bench is the part of the repository's BENCHMARK.json that -compare and
// the tests read.
type Bench struct {
	Seconds   int                          `json:"run_seconds"`
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBench(path string) (*Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
