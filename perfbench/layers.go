package main

// Per-layer probes shared by every workload.  Each probe times calls into
// one module's public functions on the workload's own inputs, from
// outside the module, inside a span of its own.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"incdata/internal/certain"
	"incdata/internal/engine"
	"incdata/internal/plan"
	"incdata/internal/queryparse"
	"incdata/internal/ra"
	"incdata/internal/table"
)

// probeReps is how many times a probe repeats a call; probes report the
// median.
const probeReps = 15

// probeQuery is one query of a workload as the probes replay it.
type probeQuery struct {
	name string
	text string
	eng  *engine.Engine
	db   *table.Database // the state eng evaluates at
	opts engine.Options
}

// timeMedian runs f reps times inside spans named name and returns the
// median duration in milliseconds.
func (r *run) timeMedian(name string, reps int, f func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	root := r.tr.begin("probe:"+name, 0, 0)
	defer r.tr.end(root)
	for i := 0; i < reps; i++ {
		var err error
		d := r.tr.timed(name, root, int64(i), func() { err = f() })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, float64(d.Nanoseconds())/1e6)
	}
	return median(xs), nil
}

// evalConfig is the plan configuration engine.Options{} resolves to: every
// worker, columnar and coded tiers on.
func evalConfig() plan.EvalConfig {
	return plan.EvalConfig{Workers: runtime.GOMAXPROCS(0), Columnar: true, Coded: true}
}

// directEval is the evaluation engine.Eval dispatches to, called on a
// certain.Evaluator of the probe's own.
func directEval(ev *certain.Evaluator, q ra.Expr, db *table.Database, opts engine.Options) (*table.Relation, error) {
	copts := certain.Options{Workers: runtime.GOMAXPROCS(0), MaxWorlds: opts.MaxWorlds}
	switch opts.Mode {
	case engine.ModeCertain:
		return ev.NaiveWith(q, db, evalConfig())
	case engine.ModeNaive:
		return ev.NaiveRawWith(q, db, evalConfig())
	case engine.ModeCertainCWA:
		return ev.ByWorldsCWA(q, db, copts)
	case engine.ModeCertainObject:
		return ev.CertainObjectCWA(q, db, copts)
	}
	return nil, fmt.Errorf("mode %v has no direct probe", opts.Mode)
}

// probeQueries measures the query-path layers over the workload's
// queries: parse, compile, the engine's own share of Eval, and the plan
// kernels.  World-enumeration queries skip the plan-kernel probes (they do
// not run a one-shot plan); their layers are the workload's own probes.
func (r *run) probeQueries(qs []probeQuery) (map[string]queryTimes, error) {
	times := map[string]queryTimes{}
	var parse, compile, self, evalMs, allocs, bytes []float64
	rowsOut := 0
	ev := certain.NewEvaluator(true)
	for _, q := range qs {
		expr, err := queryparse.Parse(q.text)
		if err != nil {
			return nil, err
		}
		ms, err := r.timeMedian("queryparse.Parse", probeReps, func() error { _, err := queryparse.Parse(q.text); return err })
		if err != nil {
			return nil, err
		}
		parse = append(parse, ms*1000)
		ms, err = r.timeMedian("plan.Compile", probeReps, func() error { _, err := plan.Compile(expr, q.db.Schema()); return err })
		if err != nil {
			return nil, err
		}
		compile = append(compile, ms*1000)

		// Warm both paths' caches, then time each.
		if _, err := q.eng.Eval(expr, q.opts); err != nil {
			return nil, err
		}
		if _, err := directEval(ev, expr, q.db, q.opts); err != nil {
			return nil, err
		}
		// Alternate the two calls and take the median of the paired
		// differences, so drift in machine speed cancels out of the
		// engine's small share.
		var fulls, directs, diffs []float64
		root := r.tr.begin("probe:engine.Eval", 0, 0)
		for i := 0; i < probeReps; i++ {
			var ferr, derr error
			f := r.tr.timed("engine.Eval", root, int64(i), func() { _, ferr = q.eng.Eval(expr, q.opts) })
			d := r.tr.timed("certain.Evaluator", root, int64(i), func() { _, derr = directEval(ev, expr, q.db, q.opts) })
			if ferr != nil || derr != nil {
				return nil, errors.Join(ferr, derr)
			}
			fulls = append(fulls, float64(f.Nanoseconds())/1e6)
			directs = append(directs, float64(d.Nanoseconds())/1e6)
			diffs = append(diffs, float64((f-d).Nanoseconds())/1e6)
		}
		r.tr.end(root)
		t := queryTimes{full: median(fulls), direct: median(directs), self: median(diffs)}
		self = append(self, t.self*1000)
		r.set("layer.engine.eval_ms."+q.name, t.full)
		r.set("layer.certain.direct_ms."+q.name, t.direct)
		times[q.name] = t

		if q.opts.Mode != engine.ModeCertain && q.opts.Mode != engine.ModeNaive {
			continue
		}
		p, err := plan.Compile(expr, q.db.Schema())
		if err != nil {
			return nil, err
		}
		evalPlan := func() (*table.Relation, error) {
			if q.opts.Mode == engine.ModeNaive {
				return p.EvalWith(q.db, evalConfig())
			}
			return p.EvalCertainWith(q.db, evalConfig())
		}
		out, err := evalPlan()
		if err != nil {
			return nil, err
		}
		rowsOut += out.Len()
		ms, err = r.timeMedian("plan.Eval", probeReps, func() error { _, err := evalPlan(); return err })
		if err != nil {
			return nil, err
		}
		evalMs = append(evalMs, ms)
		t.plan = ms
		times[q.name] = t
		r.set("layer.plan.eval_ms."+q.name, ms)
		r.set("layer.plan.rows_out."+q.name, out.Len())
		a, b, err := allocsPer(probeReps, func() error { _, err := evalPlan(); return err })
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, a)
		bytes = append(bytes, b)
		r.set("layer.plan.allocs_per_query."+q.name, a)
		r.set("layer.plan.bytes_per_query."+q.name, b)
	}
	r.layer("queryparse.parse_us", "us", mean(parse))
	r.layer("plan.compile_us", "us", mean(compile))
	r.layer("engine.eval_self_us", "us", mean(self))
	r.layer("plan.eval_ms", "ms", mean(evalMs))
	r.layer("plan.allocs_per_query", "count", mean(allocs))
	r.layer("plan.bytes_per_query", "B", mean(bytes))
	r.layer("plan.rows_out", "count", float64(rowsOut))
	return times, nil
}

// queryTimes are one query's probe medians, in milliseconds: engine.Eval,
// the direct certain.Evaluator call, their paired difference (the engine's
// self time) and, for one-shot plans, the plan's evaluation.
type queryTimes struct {
	full, direct, self, plan float64
}

// attribute records one operation type's blocking path: the operation's
// median, the self time of each layer on it, and the remainder no layer
// accounts for.
func (r *run) attribute(op string, opMs float64, layers map[string]float64) {
	sum := 0.0
	for _, v := range layers {
		sum += v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	att, _ := r.report["attribution_layers"].(map[string]any)
	if att == nil {
		att = map[string]any{}
		r.report["attribution_layers"] = att
	}
	att[op] = map[string]any{"p50_ms": round(opMs), "self_ms": layers, "unattributed_ms": round(opMs - sum)}
}

// allocsPer returns the mean heap allocations and bytes of one call of f.
func allocsPer(reps int, f func() error) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps), float64(after.TotalAlloc-before.TotalAlloc) / float64(reps), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probeTable measures the relation store on the workload's generated rows:
// insertion through Database.Add, the heap each stored tuple costs beyond
// the tuple values themselves, and the derived structures the kernels
// build on the largest relation (hash index, partitioning, coded sidecar)
// keyed on positions.
func (r *run) probeTable(rs []rows, largest string, positions []int) error {
	n := 0
	for _, x := range rs {
		n += len(x.tuples)
	}
	ms, err := r.timeMedian("table.Database.Add", 5, func() error { return load(newDatabase(rs), rs) })
	if err != nil {
		return err
	}
	r.layer("table.add_ns_per_row", "ns", ms*1e6/float64(n))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := newDatabase(rs)
	if err := load(kept, rs); err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.layer("table.heap_bytes_per_tuple", "B", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(n))

	src := kept.Relation(largest)
	fresh := func() *table.Relation {
		rel := table.NewRelation(src.Schema())
		rel.MustAddBatch(src.Tuples())
		return rel
	}
	type derive struct {
		metric, span string
		f            func(*table.Relation)
	}
	for _, d := range []derive{
		{"table.index_build_ms", "table.Relation.Index", func(rel *table.Relation) { rel.Index(positions) }},
		{"table.partition_ms", "table.Relation.Partition", func(rel *table.Relation) { rel.Partition(positions, runtime.GOMAXPROCS(0)) }},
		{"table.encode_ms", "table.Relation.Encoding", func(rel *table.Relation) { rel.Encoding(table.NewDict()) }},
	} {
		var xs []float64
		root := r.tr.begin("probe:"+d.span, 0, 0)
		for i := 0; i < 5; i++ {
			rel := fresh()
			start := time.Now()
			id := r.tr.begin(d.span, root, int64(i))
			d.f(rel)
			r.tr.end(id)
			xs = append(xs, float64(time.Since(start).Nanoseconds())/1e6)
		}
		r.tr.end(root)
		r.layer(d.metric, "ms", median(xs))
	}
	runtime.KeepAlive(kept)
	return nil
}

// cacheHitRatio is the one-shot plan-cache hit ratio between two engine
// stats readings.
func cacheHitRatio(before, after engine.Stats) float64 {
	hits := float64(after.Planned.OneShotHits - before.Planned.OneShotHits)
	misses := float64(after.Planned.OneShotMisses - before.Planned.OneShotMisses)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// worldHitRatio is the world-plan cache hit ratio between two readings.
func worldHitRatio(before, after engine.Stats) float64 {
	hits := float64(after.Planned.WorldHits - before.Planned.WorldHits)
	misses := float64(after.Planned.WorldMisses - before.Planned.WorldMisses)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
