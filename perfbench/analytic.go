package main

// The analytic workload: read-only, in-process.  One closed-loop caller
// runs engine.Eval over a fixed cycle of certain-answer queries on four
// databases generated from the seed.  The relation store, the plan kernels and world plans do
// almost all the work; server, store, version and inc do none, so a change
// to them must read as no change here.

import (
	"fmt"
	"math/rand"
	"time"

	"incdata/internal/certain"
	"incdata/internal/engine"
	"incdata/internal/plan"
	"incdata/internal/queryparse"
	"incdata/internal/ra"
	"incdata/internal/semantics"
	"incdata/internal/table"
	"incdata/internal/valuation"
)

// analyticQuery is one query of the cycle, on one of the databases.
type analyticQuery struct {
	name   string
	db     string // key into the generated databases
	text   string
	mode   engine.Mode
	worlds bool // world-enumerating: timed as focus, not as query
	weight int  // occurrences per cycle
	expr   ra.Expr
}

var analyticQueries = []analyticQuery{
	{name: "join", db: "join", text: "project(join(R, S); a, c)", mode: engine.ModeCertain, weight: 8},
	{name: "join-naive", db: "join", text: "project(join(R, S); a, c)", mode: engine.ModeNaive, weight: 8},
	{name: "strjoin", db: "catalog", text: "project(join(Item, Tagged); category, tag)", mode: engine.ModeCertain, weight: 8},
	{name: "diff", db: "orders", text: "diff(rename(project(Order; o_id); O; id), rename(project(Pay; order); P; id))", mode: engine.ModeCertain, weight: 8},
	{name: "diff-naive", db: "orders", text: "diff(rename(project(Order; o_id); O; id), rename(project(Pay; order); P; id))", mode: engine.ModeNaive, weight: 8},
	// Four of every five world queries are certain-cwa, so the median of
	// the world-query samples stays inside one query's distribution.
	{name: "cwa", db: "worlds", text: "diff(project(W; a, c), rename(V; X; a, c))", mode: engine.ModeCertainCWA, worlds: true, weight: 4},
	{name: "object", db: "worlds", text: "project(W; b)", mode: engine.ModeCertainObject, worlds: true, weight: 1},
}

func analyticInputs(seed int64) map[string][]rows {
	rng := rand.New(rand.NewSource(seed))
	return map[string][]rows{
		"join":    genJoin(rng, 4000),
		"catalog": genCatalog(rng, 20000),
		"orders":  genOrders(rng, 20000),
		"worlds":  genWorlds(rng, 4000, 40),
	}
}

func runAnalytic(r *run) error {
	inputs := analyticInputs(r.cfg.seed)
	qs := append([]analyticQuery(nil), analyticQueries...)
	for i := range qs {
		e, err := queryparse.Parse(qs[i].text)
		if err != nil {
			return err
		}
		qs[i].expr = e
	}

	// Set-up: load every database through Database.Add, build the engines
	// and warm their plan caches, indexes and world plans.
	var engines map[string]*engine.Engine
	err := medianSetup(r, func(int) (func(), error) {
		engines = map[string]*engine.Engine{}
		for _, key := range sortedKeys(inputs) {
			db := newDatabase(inputs[key])
			if err := load(db, inputs[key]); err != nil {
				return nil, err
			}
			engines[key] = engine.New(db)
		}
		for _, q := range qs {
			if _, err := engines[q.db].Eval(q.expr, engine.Options{Mode: q.mode}); err != nil {
				return nil, fmt.Errorf("warm %s: %w", q.name, err)
			}
		}
		return func() { engines = nil }, nil
	})
	if err != nil {
		return err
	}
	sizes := map[string]any{}
	for key, eng := range engines {
		sizes[key] = inputSizes(eng.Snapshot().Database())
	}
	r.set("inputs", sizes)

	// Gate, outside every timed section: each answer's fingerprint against
	// the ra.Eval, PlannerOff and Workers: 1 oracles.
	want, err := analyticOracles(engines, qs)
	if err != nil {
		return err
	}

	cycle := analyticCycle(qs)

	perQuery := map[string]*samples{}
	for _, q := range qs {
		perQuery[q.name] = &samples{}
	}
	var query, worlds samples
	var ops int64
	loop := func(until time.Time, traced bool, qsamp, wsamp *samples) {
		for i := 0; time.Now().Before(until); i++ {
			q := qs[cycle[i%len(cycle)]]
			ops++
			opName := "query"
			if q.worlds {
				opName = "worlds"
			}
			root := 0
			if traced {
				root = r.tr.begin(opName, 0, ops)
			}
			var rel *table.Relation
			var err error
			start := time.Now()
			if traced {
				r.tr.timed("engine.Eval", root, ops, func() { rel, err = engines[q.db].Eval(q.expr, engine.Options{Mode: q.mode}) })
			} else {
				rel, err = engines[q.db].Eval(q.expr, engine.Options{Mode: q.mode})
			}
			d := time.Since(start)
			r.tr.end(root)
			r.attempted.Add(1)
			if err != nil {
				r.opFailed(q.name, err)
				continue
			}
			if q.worlds {
				wsamp.add(d)
			} else {
				qsamp.add(d)
			}
			perQuery[q.name].add(d)
			got := relFingerprint(q.name, rel)
			if r.cfg.plant == plantWrongAnswer && ops == 7 {
				got.N--
			}
			if got != want[q.name] {
				r.fail("%s: answer %+v, oracle %+v", q.name, got, want[q.name])
			}
		}
	}

	if err := resetPeakRSS(); err != nil {
		return err
	}
	before := engines["join"].Stats()
	wBefore := engines["worlds"].Stats()
	if !r.cfg.trace {
		loop(r.deadline(1), false, &query, &worlds)
	} else {
		// Half the window untraced, half traced: the ratio of the two
		// query medians is the tracing overhead.
		var tq, tw samples
		loop(r.deadline(0.5), false, &query, &worlds)
		loop(r.deadline(0.5), true, &tq, &tw)
		r.set("trace_overhead", map[string]any{
			"query_p50_untraced_ms": round(query.quantile(0.5)), "query_p50_traced_ms": round(tq.quantile(0.5)),
			"overhead_frac": round(tq.quantile(0.5)/query.quantile(0.5) - 1),
		})
	}
	rss := peakRSSMB()
	after := engines["join"].Stats()
	wAfter := engines["worlds"].Stats()

	per := map[string]any{}
	for name, s := range perQuery {
		per[name] = s.summary()
	}
	r.set("per_query", per)
	r.set("ops", map[string]any{"query": query.summary(), "worlds": worlds.summary()})
	r.setMetrics(map[string]metric{
		"query_p50_ms": {query.quantile(0.5), "ms"},
		"focus_p50_ms": {worlds.quantile(0.5), "ms"},
		"rss_peak_mb":  {rss, "MB"},
	}, withP99(map[string]metric{
		"setup_s":       r.e2e["setup_s"],
		"query_p50_ms":  {query.quantile(0.5), "ms"},
		"query_p90_ms":  {query.quantile(0.9), "ms"},
		"worlds_p50_ms": {worlds.quantile(0.5), "ms"},
		"queries_per_s": {float64(query.n()+worlds.n()) / r.cfg.seconds, "1/s"},
		"rss_peak_mb":   {rss, "MB"},
	}, "query_p99_ms", &query))
	if !r.cfg.trace {
		return nil
	}

	r.set("attribution", r.tr.selfTimes())
	r.layer("engine.plan_cache_hit_ratio", "ratio", cacheHitRatio(before, after))
	r.set("layer.engine.world_cache_hit_ratio", worldHitRatio(wBefore, wAfter))
	var pqs []probeQuery
	for _, q := range qs {
		eng := engines[q.db]
		pqs = append(pqs, probeQuery{name: q.name, text: q.text, eng: eng, db: eng.Snapshot().Database(), opts: engine.Options{Mode: q.mode}})
	}
	times, err := r.probeQueries(pqs)
	if err != nil {
		return err
	}
	if err := r.probeTable(inputs["catalog"], "Tagged", []int{0}); err != nil {
		return err
	}
	if err := r.probeWorlds(engines["worlds"].Snapshot().Database(), qs); err != nil {
		return err
	}
	for _, q := range qs {
		t := times[q.name]
		layers := map[string]float64{"engine": t.self}
		switch {
		case !q.worlds:
			layers["certain"] = t.direct - t.plan
			layers["plan"] = t.plan
		default:
			// World enumeration runs on the worker pool, so the serial
			// Session.Delta probe (layer.plan.worlds.*) is not on the
			// blocking path as measured; certain covers it.
			layers["certain"] = t.direct
		}
		r.attribute(q.name, perQuery[q.name].quantile(0.5), layers)
	}
	return nil
}

// analyticCycle lists each query weight times, spread evenly by smooth
// weighted round robin.  The order is the same for every seed: which query
// follows which decides how much garbage-collection work from one query
// lands on the next, and that must not vary with the seed, which only
// chooses the data.
func analyticCycle(qs []analyticQuery) []int {
	total := 0
	for _, q := range qs {
		total += q.weight
	}
	credit := make([]int, len(qs))
	cycle := make([]int, 0, total)
	for len(cycle) < total {
		best := 0
		for i, q := range qs {
			credit[i] += q.weight
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		cycle = append(cycle, best)
	}
	return cycle
}

// analyticOracles evaluates every query on the oracles and returns the
// agreed answer fingerprints; a disagreement fails the run.
func analyticOracles(engines map[string]*engine.Engine, qs []analyticQuery) (map[string]fingerprint, error) {
	want := map[string]fingerprint{}
	for _, q := range qs {
		eng := engines[q.db]
		fast, err := eng.Eval(q.expr, engine.Options{Mode: q.mode})
		if err != nil {
			return nil, err
		}
		fp := relFingerprint(q.name, fast)
		var oracles []*table.Relation
		if !q.worlds {
			raw, err := ra.Eval(q.expr, eng.Snapshot().Database())
			if err != nil {
				return nil, err
			}
			if q.mode == engine.ModeCertain {
				raw = ra.StripNulls(raw)
			}
			oracles = append(oracles, raw)
		}
		for _, opts := range []engine.Options{{Mode: q.mode, Planner: engine.PlannerOff}, {Mode: q.mode, Workers: 1}} {
			rel, err := eng.Eval(q.expr, opts)
			if err != nil {
				return nil, err
			}
			oracles = append(oracles, rel)
		}
		for i, o := range oracles {
			if got := relFingerprint(q.name, o); got != fp {
				return nil, fmt.Errorf("%s: oracle %d answer %+v disagrees with the engine's %+v", q.name, i, got, fp)
			}
		}
		want[q.name] = fp
	}
	return want, nil
}

// probeWorlds measures the world-enumeration layers on the worlds
// database: the certain evaluator's enumeration entry points, and the
// world plan's stable part against its per-world deltas.  They are
// analytic-only, so they go to the report rather than the per-layer line.
func (r *run) probeWorlds(db *table.Database, qs []analyticQuery) error {
	ev := certain.NewEvaluator(true)
	for _, q := range qs {
		if !q.worlds {
			continue
		}
		q := q
		name := "certain.cwa_ms"
		call := func() error {
			_, err := ev.ByWorldsCWA(q.expr, db, certain.Options{Workers: evalConfig().Workers})
			return err
		}
		if q.mode == engine.ModeCertainObject {
			name = "certain.object_ms"
			call = func() error {
				_, err := ev.CertainObjectCWA(q.expr, db, certain.Options{Workers: evalConfig().Workers})
				return err
			}
		}
		if err := call(); err != nil {
			return err
		}
		ms, err := r.timeMedian(name, 5, call)
		if err != nil {
			return err
		}
		r.set("layer."+name, ms)
		if q.mode != engine.ModeCertainCWA {
			continue
		}
		dom := semantics.DomainOf(db, 1).Values()
		nulls := db.SortedNulls()
		r.set("layer.certain.worlds_enumerated", valuation.Count(len(nulls), len(dom)))

		var stableRows int
		stableMs, err := r.timeMedian("plan.WorldPlan.Stable", 5, func() error {
			wp, err := plan.ForWorlds(q.expr, db)
			if err != nil {
				return err
			}
			st, err := wp.Stable()
			if err != nil {
				return err
			}
			stableRows = st.Len()
			return nil
		})
		if err != nil {
			return err
		}
		wp, err := plan.ForWorlds(q.expr, db)
		if err != nil {
			return err
		}
		if _, err := wp.Stable(); err != nil {
			return err
		}
		sess := wp.NewSession()
		worlds, deltaRows := 0, 0
		var derr error
		deltaMs, err := r.timeMedian("plan.Session.Delta", 3, func() error {
			worlds, deltaRows = 0, 0
			valuation.Enumerate(nulls, dom, func(v valuation.Valuation) bool {
				d, err := sess.Delta(v)
				if err != nil {
					derr = err
					return false
				}
				worlds++
				deltaRows += d.Len()
				return true
			})
			return derr
		})
		if err != nil {
			return err
		}
		meanDelta := float64(deltaRows) / float64(worlds)
		r.set("layer.plan.worlds.stable_ms", stableMs)
		r.set("layer.plan.worlds.stable_rows", stableRows)
		r.set("layer.plan.worlds.delta_us_per_world", deltaMs*1000/float64(worlds))
		r.set("layer.plan.worlds.delta_rows_per_world", meanDelta)
		r.set("layer.plan.worlds.invariant_share", float64(stableRows)/(float64(stableRows)+meanDelta))
	}
	return nil
}
