// Command incbench runs the reproduction experiments E1–E19 (see the
// "Experiments" section of README.md) through the engine facade and prints
// one text table per experiment, or a single machine-readable JSON
// document with -json so that successive runs can be archived
// (BENCH_*.json) and compared.
//
// The -planner flag selects the engine's evaluation path: "on" (the query
// planner: planned one-shot evaluation plus world-invariant subplan
// hoisting), "off" (the naïve-evaluation oracle, the seed path), or
// "both", which runs the suite twice and reports per-experiment timings
// for each — the planner-on vs planner-off comparison archived in
// BENCH_*.json.  The -coded flag selects the dictionary-coded execution
// tier of planned evaluation the same way: "on" (monomorphic u64 kernels
// over the value dictionary), "off" (the row path, the coded tier's
// differential oracle), or "both".
// E13 exercises the engine's snapshot-isolated concurrent batch path and
// reports its parallel speedup; E14 exercises maintained views and
// reports the incremental-refresh vs full-recompute speedup on an update
// stream; E16 sweeps the intra-query worker budget
// (engine.Options.Workers, the -workers flag) over morsel-parallel
// evaluation; E17 measures the coded tier against the row oracle on a
// string-heavy workload; E18 measures the multi-session network server
// (internal/server) end to end — concurrent client fleets over real TCP,
// with remote answers pinned bit-identical to in-process evaluation; E19
// measures the durable storage subsystem (internal/store) — commit-log
// throughput, cold-open recovery, time travel over the recovered history,
// and the spill-to-disk join under a constrained memory budget, all
// pinned bit-identical to in-memory evaluation.
// With -json the report records GOMAXPROCS, the CPU count and
// the -workers setting, so archived speedups stay interpretable across
// hosts.
//
// Usage:
//
//	incbench                  # quick configuration (seconds)
//	incbench -full            # larger sweeps (minutes)
//	incbench -only E1,E8
//	incbench -json            # machine-readable output for perf tracking
//	incbench -json -planner both
//	incbench -json -coded both > BENCH_pr8.json
//	incbench -json -planner off > BENCH_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"incdata/internal/engine"
	"incdata/internal/experiments"
)

// plannerTimings summarizes one full suite run under a fixed evaluation
// setting (a planner or coded selection).
type plannerTimings struct {
	Seconds     float64            `json:"seconds"`
	Experiments map[string]float64 `json:"experiment_seconds"`
}

// environment records the hardware/scheduler context a run executed under,
// so archived BENCH_*.json documents stay comparable across hosts: parallel
// speedups (E13, E16) are bounded by GOMAXPROCS, and a ~1x speedup on a
// GOMAXPROCS=1 host is expected, not a regression.
type environment struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Workers is the -workers flag: the intra-query worker budget every
	// evaluation ran under (0 means it resolved to GOMAXPROCS).
	Workers int `json:"workers"`
}

// report is the -json output document.
type report struct {
	Config      string               `json:"config"`
	Planner     string               `json:"planner"`
	Coded       string               `json:"coded"`
	Env         environment          `json:"env"`
	Experiments []experiments.Result `json:"experiments"`
	Ran         int                  `json:"ran"`
	Seconds     float64              `json:"seconds"`
	// PlannerOn/PlannerOff carry the per-experiment timing comparison when
	// -planner both is selected; the Experiments above are the planner-on
	// results (the two paths are differentially tested to be identical).
	PlannerOn  *plannerTimings `json:"planner_on,omitempty"`
	PlannerOff *plannerTimings `json:"planner_off,omitempty"`
	// CodedOn/CodedOff carry the coded vs row comparison when -coded
	// both is selected; the Experiments above are the coded-on results
	// (the two tiers compute bit-identical answers).
	CodedOn  *plannerTimings `json:"coded_on,omitempty"`
	CodedOff *plannerTimings `json:"coded_off,omitempty"`
}

// runSuite executes the experiment suite through the engine under the
// given planner and coded settings and returns the kept results plus
// timing summary.
func runSuite(cfg experiments.Config, filter map[string]bool, plannerOn, codedOn bool) ([]experiments.Result, plannerTimings) {
	cfg.Planner = engine.PlannerOn
	if !plannerOn {
		cfg.Planner = engine.PlannerOff
	}
	cfg.Coded = engine.CodedOn
	if !codedOn {
		cfg.Coded = engine.CodedOff
	}
	start := time.Now()
	kept := experiments.Run(cfg, filter)
	timings := plannerTimings{Experiments: map[string]float64{}}
	for _, res := range kept {
		timings.Experiments[res.ID] = res.Seconds
	}
	timings.Seconds = time.Since(start).Seconds()
	return kept, timings
}

// printComparison renders an on-vs-off timing table for one setting.
func printComparison(name string, kept []experiments.Result, on, off *plannerTimings) {
	fmt.Printf("== %s-on vs %s-off (seconds per experiment) ==\n", name, name)
	fmt.Printf("%-6s  %12s  %12s  %8s\n", "exp", name+"-on", name+"-off", "speedup")
	for _, res := range kept {
		onS := on.Experiments[res.ID]
		offS := off.Experiments[res.ID]
		speedup := "-"
		if onS > 0 {
			speedup = fmt.Sprintf("%.2fx", offS/onS)
		}
		fmt.Printf("%-6s  %12.4f  %12.4f  %8s\n", res.ID, onS, offS, speedup)
	}
	fmt.Printf("total   %12.4f  %12.4f\n", on.Seconds, off.Seconds)
}

func main() {
	full := flag.Bool("full", false, "run the larger sweeps")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E1,E8)")
	asJSON := flag.Bool("json", false, "emit one JSON document instead of text tables")
	planner := flag.String("planner", "on", "evaluation path: on, off, or both (runs twice and compares timings)")
	coded := flag.String("coded", "on", "dictionary-coded tier of planned evaluation: on, off (row oracle), or both")
	workers := flag.Int("workers", 0, "intra-query worker budget for every evaluation (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	cfg := experiments.QuickConfig()
	cfgName := "quick"
	if *full {
		cfg = experiments.FullConfig()
		cfgName = "full"
	}
	cfg.Workers = *workers
	filter := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			filter[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	if *planner != "on" && *planner != "off" && *planner != "both" {
		fmt.Fprintf(os.Stderr, "incbench: -planner must be on, off or both (got %q)\n", *planner)
		os.Exit(2)
	}
	if *coded != "on" && *coded != "off" && *coded != "both" {
		fmt.Fprintf(os.Stderr, "incbench: -coded must be on, off or both (got %q)\n", *coded)
		os.Exit(2)
	}

	primaryPlannerOn := *planner != "off"
	primaryCodedOn := *coded != "off"
	kept, primary := runSuite(cfg, filter, primaryPlannerOn, primaryCodedOn)
	if len(kept) == 0 {
		fmt.Fprintln(os.Stderr, "incbench: no experiment matched the -only filter")
		os.Exit(1)
	}
	var plannerSecondary *plannerTimings
	if *planner == "both" {
		_, off := runSuite(cfg, filter, false, primaryCodedOn)
		plannerSecondary = &off
	}
	var codedSecondary *plannerTimings
	if *coded == "both" {
		_, off := runSuite(cfg, filter, primaryPlannerOn, false)
		codedSecondary = &off
	}

	if *asJSON {
		rep := report{
			Config:  cfgName,
			Planner: *planner,
			Coded:   *coded,
			Env: environment{
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				NumCPU:     runtime.NumCPU(),
				Workers:    *workers,
			},
			Experiments: kept,
			Ran:         len(kept),
			Seconds:     primary.Seconds,
		}
		if *planner == "both" {
			p := primary
			rep.PlannerOn = &p
			rep.PlannerOff = plannerSecondary
		}
		if *coded == "both" {
			p := primary
			rep.CodedOn = &p
			rep.CodedOff = codedSecondary
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "incbench:", err)
			os.Exit(1)
		}
		return
	}

	for _, res := range kept {
		fmt.Println(res.String())
	}
	if *planner == "both" {
		printComparison("planner", kept, &primary, plannerSecondary)
	}
	if *coded == "both" {
		printComparison("coded", kept, &primary, codedSecondary)
	}
	fmt.Printf("ran %d experiments in %s (planner %s, coded %s)\n",
		len(kept), time.Duration(primary.Seconds*float64(time.Second)).Round(time.Millisecond), *planner, *coded)
}
