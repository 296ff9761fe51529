// Command lplbench regenerates the experiment tables E1–E12 — the
// measurable form of every theorem, corollary, proposition, and figure in
// the paper — and prints them to stdout. With -scenario it instead runs
// one of the in-process load scenarios of internal/bench (or all of
// them): live lplserve handlers, alone or behind a router, driven by
// closed-loop clients, every response checked against the wire contract
// and every scenario invariant self-checked. It exits non-zero on any
// violation.
//
// Usage:
//
//	lplbench                        # all experiments, full scale
//	lplbench -only E4,E5            # a subset
//	lplbench -scale 1               # reduced sweeps (fast smoke run)
//	lplbench -scenario load-json    # one load scenario
//	lplbench -scenario all -scale 1 # every scenario at smoke sizes
//	lplbench -scenario cluster-chaos -out report.json
//
// Scenarios: load-json, load-graphref, load-binary, chaos,
// cluster-ladder, deadline, cluster-chaos. -out writes the same JSON
// report schema for each (an array of them for -scenario all).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"lpltsp/internal/bench"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 2023, "experiment and scenario seed")
		trials    = flag.Int("trials", 0, "trials per parameter point (0 = experiment default)")
		scale     = flag.Int("scale", 0, "0 = full sweeps and scenario sizes, 1 = reduced")
		only      = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E4,A2)")
		ablations = flag.Bool("ablations", false, "also run the ablation tables A1–A4")
		scenario  = flag.String("scenario", "", "run a load scenario by name, or all of them, instead of the experiment tables")
		out       = flag.String("out", "", "scenario mode: also write the JSON report to this file")
	)
	flag.Parse()

	if *scenario != "" {
		os.Exit(runScenarios(*scenario, *scale, *seed, *out))
	}

	cfg := bench.Config{Seed: *seed, Trials: *trials, Scale: *scale}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	tables := bench.All(cfg)
	if *ablations || anyAblation(want) {
		tables = append(tables, bench.Ablations(cfg)...)
	}
	printed := 0
	for _, tab := range tables {
		if len(want) > 0 && !want[tab.ID] {
			continue
		}
		tab.Fprint(os.Stdout)
		printed++
	}
	if printed == 0 {
		fmt.Fprintln(os.Stderr, "lplbench: no experiments matched -only")
		os.Exit(1)
	}
}

func anyAblation(want map[string]bool) bool {
	for id := range want {
		if strings.HasPrefix(id, "A") {
			return true
		}
	}
	return false
}

// runScenarios runs the named scenario (or all), prints each report,
// writes them to out when set, and returns the exit status.
func runScenarios(name string, scale int, seed uint64, out string) int {
	scenarios := bench.Scenarios(scale)
	if name != "all" {
		s, err := bench.Lookup(name, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lplbench: %v\n", err)
			return 2
		}
		scenarios = []bench.Scenario{s}
	}
	status := 0
	var reps []*bench.Report
	for _, s := range scenarios {
		s.Seed = seed
		rep, err := bench.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lplbench: %s: %v\n", s.Name, err)
			return 1
		}
		fmt.Print(rep)
		reps = append(reps, rep)
		if len(rep.Violations) > 0 {
			status = 1
		}
	}
	if out != "" {
		var doc any = reps
		if len(reps) == 1 {
			doc = reps[0]
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lplbench: write %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("wrote %s\n", out)
	}
	return status
}
