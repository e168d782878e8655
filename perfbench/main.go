// Command perfbench is the repository's benchmark.  It runs one named
// workload from a seed, checks every answer it measures, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	go run . -workload analytic -seed 1 -seconds 10 -trace 0
//
// Workloads are analytic, served and ingest-recover; README.md maps each
// metric to the layer it attributes and the workload it is claimed on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is the run's scratch directory (stores, CSVs, span dumps).
	dir string
	// plant injects a fault the correctness gate must catch; only the
	// gate's self-test sets it.
	plant string
}

const (
	plantWrongAnswer = "wrong-answer"
	plantDropCommit  = "drop-commit"
	// setupReps is how many times each workload builds its target; setup_s
	// is the median, so one slow build does not move it.
	setupReps = 5
)

// metric is one named value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run.
type run struct {
	cfg       config
	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	wrong  []string          // correctness-gate failures
	e2e    map[string]metric // gated end-to-end metrics (untraced runs)
	layers map[string]metric // per-layer metrics (traced runs)
	report map[string]any    // everything else the run records
}

func newRun(cfg config) *run {
	return &run{
		cfg:    cfg,
		tr:     newTracer(cfg.trace),
		e2e:    map[string]metric{},
		layers: map[string]metric{},
		report: map[string]any{},
	}
}

// fail records a correctness-gate failure: a wrong answer or a lost commit.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// opFailed counts an operation that errored or was refused.
func (r *run) opFailed(what string, err error) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	errs, _ := r.report["op_errors"].([]string)
	if len(errs) < 10 {
		r.report["op_errors"] = append(errs, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *run) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.wrong) == 0
}

func (r *run) set(key string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.report[key] = v
}

// setMetrics stores the workload's values of the gated end-to-end metrics
// and the issue-level metric table in the report.
func (r *run) setMetrics(gated map[string]metric, all map[string]metric) {
	for k, v := range gated {
		r.e2e[k] = v
	}
	r.set("metrics", all)
}

func (r *run) layer(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layers[name] = metric{Value: v, Unit: unit}
}

// endToEnd are the gated metrics every workload reports; BENCHMARK.json
// lists the same names.
var endToEnd = []string{"setup_s", "query_p50_ms", "focus_p50_ms", "rss_peak_mb"}

// perLayer are the per-layer metrics every traced run reports.
var perLayer = []string{
	"queryparse.parse_us", "plan.compile_us", "engine.eval_self_us", "engine.plan_cache_hit_ratio",
	"plan.eval_ms", "plan.allocs_per_query", "plan.bytes_per_query", "plan.rows_out",
	"table.add_ns_per_row", "table.index_build_ms", "table.partition_ms", "table.encode_ms",
	"table.heap_bytes_per_tuple",
}

var workloads = map[string]func(*run) error{
	"analytic":       runAnalytic,
	"served":         runServed,
	"ingest-recover": runIngest,
}

func main() {
	var cfg config
	var trace int
	var calibrate bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: analytic, served or ingest-recover")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&calibrate, "calibrate", false, "served only: print the closed-loop request rate the current code sustains and exit")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload analytic|served|ingest-recover -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	base := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg.dir = dir
	if calibrate {
		rate, err := calibrateServed(cfg)
		os.RemoveAll(dir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sustained %.0f req/s closed loop; servedRate should be about half\n", rate)
		return
	}
	res, rep, err := execute(cfg)
	os.RemoveAll(dir)
	out, _ := json.Marshal(map[string]any{"report": rep})
	fmt.Println(string(out))
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// execute runs one workload and assembles its result and report.  An error
// means the run could not complete; a wrong answer is not an error but a
// result with Correct false.
func execute(cfg config) (result, map[string]any, error) {
	r := newRun(cfg)
	r.report["env"] = map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"store_fs":   fsType(cfg.dir),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
	if err := workloads[cfg.workload](r); err != nil {
		return result{}, r.report, err
	}
	res := result{
		Correct:   r.correct(),
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return result{}, r.report, fmt.Errorf("no operation attempted")
	}
	r.report["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	if !res.Correct {
		r.report["wrong"] = r.wrong
	}
	want, have := endToEnd, r.e2e
	if cfg.trace {
		want, have = perLayer, r.layers
		if err := r.tr.dump(filepath.Join(filepath.Dir(cfg.dir), cfg.workload+"-spans.json")); err != nil {
			return result{}, r.report, err
		}
		r.report["spans"] = r.tr.len()
	}
	for _, name := range want {
		m, ok := have[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if !res.Correct {
				continue // a failed gate can leave operations unmeasured
			}
			return result{}, r.report, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = m
	}
	return res, r.report, nil
}

// deadline returns when a measured phase of frac of the run's seconds,
// starting now, ends.
func (r *run) deadline(frac float64) time.Time {
	return time.Now().Add(time.Duration(frac * r.cfg.seconds * float64(time.Second)))
}

// medianSetup builds the workload's target setupReps times and reports the
// median build time; build returns a release func that frees everything
// but the last build's target.
func medianSetup(r *run, build func(rep int) (release func(), err error)) error {
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		start := time.Now()
		release, err := build(rep)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if rep < setupReps-1 && release != nil {
			release()
		}
	}
	runtime.GC()
	r.e2e["setup_s"] = metric{Value: median(secs), Unit: "s"}
	r.set("setup_s_reps", secs)
	return nil
}

// sortedKeys returns a map's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
