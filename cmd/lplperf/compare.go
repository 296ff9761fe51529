package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// runCompare implements -compare: sides[0] is the base, each later side
// is compared against it. A side is a comma-separated list of run records
// (one per run). Every end-to-end metric of the catalogue is shown; the
// ones BENCHMARK.json gates get a verdict against their bound.
func runCompare(sides []string, benchPath string, w io.Writer) error {
	if len(sides) < 2 {
		return fmt.Errorf("-compare needs a base and at least one other side")
	}
	if benchPath == "" {
		benchPath = findBench()
	}
	b, err := loadBench(benchPath)
	if err != nil {
		return err
	}
	gated := map[string]float64{}
	for _, m := range b.EndToEnd {
		gated[m.Name] = m.Bound
	}
	vals := make([]map[string][]float64, len(sides))
	var workloads []string
	for i, side := range sides {
		vals[i] = map[string][]float64{}
		for _, path := range strings.Split(side, ",") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var rec RunRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			for _, wr := range rec.Workloads {
				if i == 0 && !slices.Contains(workloads, wr.Name) {
					workloads = append(workloads, wr.Name)
				}
				for name, m := range wr.Metrics {
					key := wr.Name + " " + name
					vals[i][key] = append(vals[i][key], m.Value)
				}
			}
		}
	}
	for s := 1; s < len(sides); s++ {
		fmt.Fprintf(w, "base %s\n  vs %s\n", sides[0], sides[s])
		fmt.Fprintf(w, "%-16s %-18s %30s %30s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict")
		for _, wl := range workloads {
			for _, m := range endToEnd {
				key := wl + " " + m.Name
				base, cur := vals[0][key], vals[s][key]
				if len(base) == 0 || len(cur) == 0 {
					fmt.Fprintf(w, "%-16s %-18s missing on one side\n", wl, m.Name)
					continue
				}
				v := "(not gated)"
				if bound, ok := gated[m.Name]; ok {
					v = classify(base, cur, m.Better, bound)
				}
				bq, cq := quartiles(base), quartiles(cur)
				fmt.Fprintf(w, "%-16s %-18s %30s %30s %+7.2f%%  %s\n", wl, m.Name, fmtQ(bq), fmtQ(cq),
					100*relChange(bq[1], cq[1]), v)
			}
		}
	}
	return nil
}

// findBench looks for BENCHMARK.json in the working directory and its
// parents (the benchmark runs from the repository root or its own
// directory).
func findBench() string {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json", "../../BENCHMARK.json"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return filepath.Join(".", "BENCHMARK.json")
}

// quartiles returns [q1, median, q3] as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// relChange is (cur − base) / base, or the plain difference at a zero base.
func relChange(base, cur float64) float64 {
	if base == 0 {
		return cur - base
	}
	return (cur - base) / math.Abs(base)
}

// classify judges the new side against the base: worse or better when
// the medians differ by more than the bound in that direction, within
// otherwise, and unresolved when either side's quartile spread exceeds
// the bound — unless every new run beats every base run.
func classify(base, cur []float64, better string, bound float64) string {
	bq, cq := quartiles(base), quartiles(cur)
	sign := 1.0 // positive change = worse
	if better == "higher" {
		sign = -1
	}
	worse := sign * relChange(bq[1], cq[1])
	spread := math.Max(math.Abs(relChange(bq[1], bq[2])-relChange(bq[1], bq[0])),
		math.Abs(relChange(cq[1], cq[2])-relChange(cq[1], cq[0])))
	allBetter := true
	for _, c := range cur {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && allBetter:
		return "better"
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > bound:
		return "better"
	}
	return "within"
}
