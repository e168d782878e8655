package main

// The served workload: mixed reads and writes over loopback TCP against an
// in-process server.Server, open loop at a fixed offered rate.  Evaluation
// is cheap here (≈2k orders), so the round trip and the commit critical
// section — version, inc refresh, store append and fsync, subscriber push
// — dominate, and commits invalidate the plan caches that always hit in
// the analytic workload.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"incdata/internal/csvio"
	"incdata/internal/dataload"
	"incdata/internal/engine"
	"incdata/internal/queryparse"
	"incdata/internal/server"
	"incdata/internal/server/client"
	"incdata/internal/server/wire"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/version"
)

// servedRate is the offered request rate (req/s, all sessions together):
// about 40% of what the code sustained closed loop when the benchmark was
// defined (perfbench -workload served -calibrate: 264–276 req/s on a 2-CPU
// x86-64 VM with one request session).  Below half, the queueing tail
// stays steady from run to run.  It is fixed, so runs on two commits offer
// the same load.
const servedRate = 110

// maxLateness is how late the request generator may run (p99) before a
// run is invalid: the latencies of a run whose generator fell behind
// measure the generator, not the server.
const maxLateness = 20 * time.Millisecond

var servedQueries = []string{
	"diff(rename(project(Order; o_id); O; id), rename(project(Pay; order); P; id))",
	"project(join(Order, rename(Pay; P; p_id, o_id, amount)); o_id, amount)",
}

// servedViews are REGISTERed at set-up: the unpaid difference (maintained
// incrementally) and the paid join.
var servedViews = map[string]string{"unpaid": servedQueries[0], "paid": servedQueries[1]}

type opKind int

const (
	opQuery opKind = iota
	opCommit
	opAsOf
)

// job is one request the generator scheduled.
type job struct {
	due   time.Time
	kind  opKind
	query int
}

// answer is one remote answer to check against in-process evaluation.
type answer struct {
	commit string
	query  int
	fp     fingerprint
}

// push is one subscriber delta as received.
type push struct {
	at   time.Time
	resp wire.Response
}

// servedTarget is one set-up server with its engine and store.
type servedTarget struct {
	eng   *engine.Engine
	srv   *server.Server
	addr  string
	store string
}

func (t *servedTarget) close() {
	t.srv.Close()
	t.eng.Close()
	os.RemoveAll(t.store)
}

// calibrateServed measures the closed-loop request rate the code
// sustains with the served mix; servedRate is set to about half of it.
func calibrateServed(cfg config) (float64, error) {
	r := newRun(cfg)
	csvDir, err := servedCSV(r)
	if err != nil {
		return 0, err
	}
	t, err := setupServed(csvDir, filepath.Join(cfg.dir, "store"))
	if err != nil {
		return 0, err
	}
	defer t.close()
	w, err := newServedRun(r, t, 0)
	if err != nil {
		return 0, err
	}
	if err := w.drive(); err != nil {
		return 0, err
	}
	return float64(r.attempted.Load()) / cfg.seconds, nil
}

func servedCSV(r *run) (string, error) {
	rs := genOrders(rand.New(rand.NewSource(r.cfg.seed)), 2000)
	db := newDatabase(rs)
	if err := load(db, rs); err != nil {
		return "", err
	}
	dir := filepath.Join(r.cfg.dir, "csv")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.set("inputs", inputSizes(db))
	return dir, csvio.WriteDatabaseDir(dir, db)
}

// setupServed loads the CSVs through dataload, persists the engine with
// history, starts the server, registers the views and warms every query.
func setupServed(csvDir, store string) (*servedTarget, error) {
	eng, _, err := dataload.Load(csvDir)
	if err != nil {
		return nil, err
	}
	if _, err := eng.EnableHistory(engine.HistoryOptions{}); err != nil {
		return nil, err
	}
	if err := eng.Persist(store); err != nil {
		return nil, err
	}
	srv, err := server.New(eng, server.Config{})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &servedTarget{eng: eng, srv: srv, addr: addr.String(), store: store}
	c, err := client.Dial(t.addr)
	if err != nil {
		t.close()
		return nil, err
	}
	defer c.Close()
	for _, name := range sortedKeys(servedViews) {
		if err := c.Register(name, servedViews[name], "certain", ""); err != nil {
			t.close()
			return nil, err
		}
	}
	for _, q := range servedQueries {
		if _, err := c.Query(q, "certain", "", 0); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func runServed(r *run) error {
	csvDir, err := servedCSV(r)
	if err != nil {
		return err
	}
	var target *servedTarget
	err = medianSetup(r, func(rep int) (func(), error) {
		t, err := setupServed(csvDir, filepath.Join(r.cfg.dir, fmt.Sprintf("store%d", rep)))
		target = t
		return func() { t.close() }, err
	})
	if err != nil {
		return err
	}
	defer target.close()

	w, err := newServedRun(r, target, servedRate)
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	before := target.eng.Stats()
	if err := w.drive(); err != nil {
		return err
	}
	rss := peakRSSMB()
	after := target.eng.Stats()
	w.check()

	late := &samples{ms: w.lateness}
	r.set("validity", map[string]any{
		"offered_rate":      servedRate,
		"sessions":          w.sessions,
		"generator_late_ms": map[string]float64{"p50": round(late.quantile(0.5)), "p99": round(late.quantile(0.99))},
	})
	if late.quantile(0.99) > float64(maxLateness.Milliseconds()) {
		return fmt.Errorf("invalid run: the request generator fell behind (lateness p99 %.2f ms > %v)", late.quantile(0.99), maxLateness)
	}
	r.set("ops", map[string]any{"query": w.query.summary(), "commit": w.commit.summary(), "asof": w.asof.summary()})
	lag := &samples{ms: w.pushLags()}
	r.setMetrics(map[string]metric{
		"query_p50_ms": {w.query.quantile(0.5), "ms"},
		"focus_p50_ms": {w.commit.quantile(0.5), "ms"},
		"rss_peak_mb":  {rss, "MB"},
	}, withP99(map[string]metric{
		"setup_s":         r.e2e["setup_s"],
		"query_p50_ms":    {w.query.quantile(0.5), "ms"},
		"query_p90_ms":    {w.query.quantile(0.9), "ms"},
		"commit_p50_ms":   {w.commit.quantile(0.5), "ms"},
		"asof_p50_ms":     {w.asof.quantile(0.5), "ms"},
		"push_lag_p50_ms": {lag.quantile(0.5), "ms"},
		"rss_peak_mb":     {rss, "MB"},
	}, "query_p99_ms", &w.query))
	if !r.cfg.trace {
		return nil
	}
	r.layer("engine.plan_cache_hit_ratio", "ratio", cacheHitRatio(before, after))
	u, t := w.queryUntraced.quantile(0.5), w.queryTraced.quantile(0.5)
	r.set("trace_overhead", map[string]any{
		"query_p50_untraced_ms": round(u), "query_p50_traced_ms": round(t), "overhead_frac": round(t/u - 1),
	})
	return w.probe(csvDir)
}

// servedRun is the state of one served measurement window.
type servedRun struct {
	r        *run
	t        *servedTarget
	rate     float64
	sessions int

	query, commit, asof samples
	// In traced runs, the QUERY samples of the untraced and traced halves.
	queryUntraced, queryTraced samples

	// writeMu serializes UPDATE+COMMIT pairs across sessions and keeps
	// REFRESH out of them, so every pinned snapshot is a commit's state.
	writeMu sync.RWMutex

	mu       sync.Mutex
	lateness []float64
	answers  []answer
	commits  []string             // acknowledged, in commit order
	ackAt    map[string]time.Time // commit → acknowledgement time
	ops      [][]wire.UpdateOp    // each commit's updates, in commit order
	nextID   int
	captured []wire.Response // sample of query replies for the wire probes

	subBase  map[string]wire.Response
	pushes   []push
	sentinel string
}

func newServedRun(r *run, t *servedTarget, rate float64) (*servedRun, error) {
	_, head, err := t.eng.Head()
	if err != nil {
		return nil, err
	}
	return &servedRun{
		r: r, t: t, rate: rate,
		sessions: max(1, runtime.NumCPU()-1),
		commits:  []string{string(head)},
		ackAt:    map[string]time.Time{},
		subBase:  map[string]wire.Response{},
	}, nil
}

// drive runs the window: a subscriber plus the request sessions, then a
// sentinel commit whose push marks the end of the subscriber's stream.
func (w *servedRun) drive() error {
	sub, err := client.Dial(w.t.addr)
	if err != nil {
		return err
	}
	defer sub.Close()
	for _, name := range sortedKeys(servedViews) {
		resp, err := sub.Subscribe(name)
		if err != nil {
			return err
		}
		w.subBase[name] = resp
	}
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for {
			resp, err := sub.NextDelta(5 * time.Second)
			if err != nil {
				return
			}
			w.mu.Lock()
			w.pushes = append(w.pushes, push{at: time.Now(), resp: resp})
			done := w.sentinel != "" && resp.Commit == w.sentinel
			w.mu.Unlock()
			if done {
				return
			}
		}
	}()
	defer func() {
		sub.Close()
		<-subDone
	}()

	start := time.Now().Add(50 * time.Millisecond)
	end := start.Add(time.Duration(w.r.cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	errs := make([]error, w.sessions)
	for s := 0; s < w.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = w.session(s, start, end)
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// Sentinel: a new unpaid order changes the unpaid view (and not the
	// paid join), so its push is the last one the subscriber needs.
	c, err := client.Dial(w.t.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	w.writeMu.Lock()
	id, err := w.updateCommit(c, []wire.UpdateOp{client.Add("Order", "oid-sentinel", "pr-sentinel")})
	if err == nil {
		w.mu.Lock()
		w.sentinel = id
		for _, p := range w.pushes {
			if p.resp.Commit == id {
				sub.Close() // the push beat the acknowledgement
			}
		}
		w.mu.Unlock()
	}
	w.writeMu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-subDone:
	case <-time.After(10 * time.Second):
	}
	return nil
}

// updateCommit sends one UPDATE and its COMMIT and records the
// acknowledged commit; the caller holds writeMu.
func (w *servedRun) updateCommit(c *client.Client, ops []wire.UpdateOp) (string, error) {
	if _, err := c.Update(ops...); err != nil {
		return "", err
	}
	id, err := c.Commit("served")
	if err != nil {
		return "", err
	}
	w.mu.Lock()
	w.commits = append(w.commits, id)
	w.ackAt[id] = time.Now()
	w.ops = append(w.ops, ops)
	w.mu.Unlock()
	return id, nil
}

// session is one request connection fed by its own open-loop generator.
func (w *servedRun) session(s int, start, end time.Time) error {
	c, err := client.Dial(w.t.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	w.writeMu.RLock()
	pinned, err := c.Refresh()
	w.writeMu.RUnlock()
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(w.r.cfg.seed*1000 + int64(s)))
	if w.rate == 0 {
		// Closed loop (calibration): the next request is due when the
		// previous one completes.
		for time.Now().Before(end) {
			if err := w.do(c, rng, nextJob(rng, time.Now()), false, &pinned); err != nil {
				return err
			}
		}
		return nil
	}
	interval := time.Duration(float64(time.Second) * float64(w.sessions) / w.rate)
	n := int(end.Sub(start) / interval)
	// The buffer holds every job of the window, so the generator never
	// waits for the session: a slow server shows as latency, not as a late
	// generator.
	jobs := make(chan job, n)
	var late []float64
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		defer close(jobs)
		for i := 0; i < n; i++ {
			j := nextJob(rng, start.Add(time.Duration(i)*interval))
			time.Sleep(time.Until(j.due))
			late = append(late, float64(time.Since(j.due).Nanoseconds())/1e6)
			jobs <- j
		}
	}()
	mid := start.Add(end.Sub(start) / 2)
	for j := range jobs {
		// In a traced run the second half of the window is traced; the
		// first half is the untraced reference for the overhead.
		traced := w.r.cfg.trace && !j.due.Before(mid)
		if err := w.do(c, rng, j, traced, &pinned); err != nil {
			return err
		}
	}
	<-genDone
	w.mu.Lock()
	w.lateness = append(w.lateness, late...)
	w.mu.Unlock()
	return nil
}

// nextJob draws the next request of the mix: 75% QUERY, 15%
// UPDATE+COMMIT, 10% ASOF+QUERY+REFRESH.
func nextJob(rng *rand.Rand, due time.Time) job {
	j := job{due: due, query: rng.Intn(len(servedQueries))}
	switch x := rng.Float64(); {
	case x < 0.15:
		j.kind = opCommit
	case x < 0.25:
		j.kind = opAsOf
	}
	return j
}

// do executes one job; operation errors count as failed, a broken
// connection ends the run.
func (w *servedRun) do(c *client.Client, rng *rand.Rand, j job, traced bool, pinned *string) error {
	tr := w.r.tr
	names := [...]string{"query", "commit", "asof"}
	root := 0
	req := int64(j.due.UnixNano())
	if traced {
		root = tr.begin(names[j.kind], 0, req)
	}
	call := func(name string, f func() error) error {
		if !traced {
			return f()
		}
		var err error
		tr.timed(name, root, req, func() { err = f() })
		return err
	}
	query := func() error {
		var resp wire.Response
		err := call("client.Query", func() (err error) {
			resp, err = c.Query(servedQueries[j.query], "certain", "", 0)
			return err
		})
		if err != nil {
			return err
		}
		w.mu.Lock()
		fp := rowsFingerprint("q", resp.Rows)
		if w.r.cfg.plant == plantWrongAnswer && len(w.answers) == 5 {
			fp.N++
		}
		w.answers = append(w.answers, answer{commit: *pinned, query: j.query, fp: fp})
		if len(w.captured) < 64 {
			w.captured = append(w.captured, resp)
		}
		w.mu.Unlock()
		return nil
	}
	var err error
	var into *samples
	switch j.kind {
	case opQuery:
		into = &w.query
		err = query()
	case opCommit:
		into = &w.commit
		w.mu.Lock()
		w.nextID++
		k := w.nextID
		w.mu.Unlock()
		ops := commitOps(k)
		w.writeMu.Lock()
		err = call("client.UpdateCommit", func() error { _, err := w.updateCommit(c, ops); return err })
		w.writeMu.Unlock()
	case opAsOf:
		into = &w.asof
		w.mu.Lock()
		ref := w.commits[rng.Intn(len(w.commits))]
		w.mu.Unlock()
		err = call("client.AsOf", func() (err error) { _, err = c.AsOf(ref); return err })
		if err == nil {
			prev := *pinned
			*pinned = ref
			err = query()
			*pinned = prev
		}
		if err == nil {
			w.writeMu.RLock()
			err = call("client.Refresh", func() (err error) { *pinned, err = c.Refresh(); return err })
			w.writeMu.RUnlock()
		}
	}
	d := time.Since(j.due)
	tr.end(root)
	w.r.attempted.Add(1)
	if err != nil {
		var remote *client.RemoteError
		if !errors.As(err, &remote) {
			return fmt.Errorf("%s: %w", names[j.kind], err)
		}
		w.r.opFailed(names[j.kind], err)
		return nil
	}
	into.add(d)
	if w.r.cfg.trace && j.kind == opQuery {
		if traced {
			w.queryTraced.add(d)
		} else {
			w.queryUntraced.add(d)
		}
	}
	return nil
}

// commitOps are the updates of the k-th commit: a new order every
// commit, a payment for the previous commit's order every second commit,
// and every tenth commit deletes the payment made four commits earlier.
// Every op changes the database and a view.
func commitOps(k int) []wire.UpdateOp {
	amount := func(k int) string { return fmt.Sprint(10 + k*37%990) }
	ops := []wire.UpdateOp{client.Add("Order", fmt.Sprintf("oid-s%d", k), fmt.Sprintf("pr%d", k%997))}
	if k%2 == 0 {
		ops = append(ops, client.Add("Pay", fmt.Sprintf("pid-s%d", k), fmt.Sprintf("oid-s%d", k-1), amount(k)))
	}
	if k%10 == 0 {
		ops = append(ops, client.Delete("Pay", fmt.Sprintf("pid-s%d", k-4), fmt.Sprintf("oid-s%d", k-5), amount(k-4)))
	}
	return ops
}

// pushLags returns, per commit that changed a view, the time from the
// commit's acknowledgement to the subscriber holding its first delta; a
// negative lag means the push arrived before the acknowledgement.
func (w *servedRun) pushLags() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := map[string]bool{}
	var lags []float64
	for _, p := range w.pushes {
		ack, ok := w.ackAt[p.resp.Commit]
		if !ok || seen[p.resp.Commit] {
			continue
		}
		seen[p.resp.Commit] = true
		lags = append(lags, float64(p.at.Sub(ack).Nanoseconds())/1e6)
	}
	return lags
}

// check is the served correctness gate: every acknowledged commit is in
// the history, every remote answer equals in-process evaluation at the
// same commit, and replaying the subscriber's deltas onto its baseline
// gives each view's answer at the final head.
func (w *servedRun) check() {
	r, eng := w.r, w.t.eng
	log, err := eng.Log()
	if err != nil {
		r.fail("log: %v", err)
		return
	}
	inLog := map[string]bool{}
	for _, c := range log {
		inLog[string(c.ID)] = true
	}
	for _, id := range w.commits {
		if !inLog[id] {
			r.fail("acknowledged commit %s is not in the history", id)
		}
	}

	type key struct {
		commit string
		query  int
	}
	local := map[key]fingerprint{}
	for _, a := range w.answers {
		k := key{a.commit, a.query}
		want, ok := local[k]
		if !ok {
			snap, err := eng.AsOf(version.CommitID(a.commit))
			if err != nil {
				r.fail("asof %s: %v", a.commit, err)
				return
			}
			q, _ := queryparse.Parse(servedQueries[a.query])
			rel, err := snap.Eval(q, engine.Options{})
			if err != nil {
				r.fail("eval at %s: %v", a.commit, err)
				return
			}
			want = relFingerprint("q", rel)
			local[k] = want
		}
		if a.fp != want {
			r.fail("remote answer of query %d at %s: %+v, in-process %+v", a.query, a.commit, a.fp, want)
		}
	}

	for name, base := range w.subBase {
		state := map[string][]string{}
		for _, row := range base.Rows {
			state[fmt.Sprint(row)] = row
		}
		dropped := false
		for _, p := range w.pushes {
			if p.resp.View != name {
				continue
			}
			if w.r.cfg.plant == plantDropCommit && !dropped {
				dropped = true
				continue
			}
			for _, row := range p.resp.Deleted {
				delete(state, fmt.Sprint(row))
			}
			for _, row := range p.resp.Inserted {
				state[fmt.Sprint(row)] = row
			}
		}
		var got fingerprint
		for _, row := range state {
			got.add("v", row)
		}
		q, _ := queryparse.Parse(servedViews[name])
		rel, err := eng.Eval(q, engine.Options{})
		if err != nil {
			r.fail("eval view %s: %v", name, err)
			continue
		}
		if want := relFingerprint("v", rel); got != want {
			r.fail("view %s: replayed subscriber deltas give %+v, head answer %+v", name, got, want)
		}
	}
}

// probe measures the served workload's layers after the window: the
// common query and table probes on the final head, and the load, wire,
// server, view and commit-path layers on what the run captured.
func (w *servedRun) probe(csvDir string) error {
	r, eng := w.r, w.t.eng
	r.set("attribution", r.tr.selfTimes())
	var pqs []probeQuery
	for i, q := range servedQueries {
		pqs = append(pqs, probeQuery{name: fmt.Sprint("q", i), text: q, eng: eng, db: eng.Snapshot().Database()})
	}
	times, err := r.probeQueries(pqs)
	if err != nil {
		return err
	}
	if err := r.probeTable(genOrders(rand.New(rand.NewSource(r.cfg.seed)), 2000), "Order", []int{0}); err != nil {
		return err
	}

	ms, err := r.timeMedian("dataload.Load", 5, func() error { _, _, err := dataload.Load(csvDir); return err })
	if err != nil {
		return err
	}
	r.set("layer.dataload.load_ms", ms)

	// Wire: re-encode and re-decode the captured query replies.
	var frames [][]byte
	total := 0
	enc, err := r.timeMedian("wire.WriteFrame", 5, func() error {
		frames = frames[:0]
		total = 0
		for _, resp := range w.captured {
			var b bytes.Buffer
			if err := wire.WriteFrame(&b, resp); err != nil {
				return err
			}
			frames = append(frames, b.Bytes())
			total += b.Len()
		}
		return nil
	})
	if err != nil {
		return err
	}
	dec, err := r.timeMedian("wire.ReadResponse", 5, func() error {
		for _, f := range frames {
			if _, err := wire.ReadResponse(bytes.NewReader(f)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(w.captured))
	r.set("layer.wire.encode_us", enc*1000/n)
	r.set("layer.wire.decode_us", dec*1000/n)
	var evalMs []float64
	for i := range servedQueries {
		if v, ok := r.report[fmt.Sprint("layer.engine.eval_ms.q", i)].(float64); ok {
			evalMs = append(evalMs, v)
		}
	}
	r.set("layer.server.rtt_self_us", (w.query.quantile(0.5)-mean(evalMs))*1000)
	var engineSelf, certainMs []float64
	for _, t := range times {
		engineSelf = append(engineSelf, t.self)
		certainMs = append(certainMs, t.direct)
	}
	r.set("layer.wire.bytes_per_response", float64(total)/n)

	c, err := client.Dial(w.t.addr)
	if err != nil {
		return err
	}
	st, err := c.Stats()
	c.Close()
	if err != nil {
		return err
	}
	r.set("layer.server.rejected", st.Rejected)
	for _, name := range sortedKeys(servedViews) {
		vs, err := eng.ViewStats(name)
		if err != nil {
			return err
		}
		refreshes := float64(vs.Incremental + vs.Recomputed)
		r.set("layer.inc.incremental_ratio."+name, float64(vs.Incremental)/refreshes)
		r.set("layer.inc.delta_out_per_commit."+name, float64(vs.DeltaOut)/float64(vs.Updates))
	}

	// Commit path: a non-persisted twin fed the run's update stream times
	// Engine.Update and Engine.Commit without the store and the server.
	twin, _, err := dataload.Load(csvDir)
	if err != nil {
		return err
	}
	if _, err := twin.EnableHistory(engine.HistoryOptions{}); err != nil {
		return err
	}
	var upd, com samples
	root := r.tr.begin("probe:commit-twin", 0, 0)
	for i, ops := range w.ops {
		parsed, err := parseOps(ops)
		if err != nil {
			return err
		}
		upd.add(r.tr.timed("engine.Update", root, int64(i), func() {
			err = twin.Update(func(db *table.Database) error { return applyOps(db, parsed) })
		}))
		if err != nil {
			return err
		}
		com.add(r.tr.timed("engine.Commit", root, int64(i), func() { _, err = twin.Commit("twin") }))
		if err != nil {
			return err
		}
	}
	r.tr.end(root)
	r.set("layer.engine.update_us", upd.quantile(0.5)*1000)
	r.set("layer.version.commit_us", com.quantile(0.5)*1000)

	// The rest of a QUERY's path is the server, the loopback network and
	// the wait behind earlier requests; of a commit's, the store's fsync,
	// view refresh, subscriber push and the wire.
	r.attribute("query", w.query.quantile(0.5), map[string]float64{
		"wire": (enc + dec) / n, "queryparse": parseMs(r), "engine": mean(engineSelf), "certain+plan": mean(certainMs),
	})
	r.attribute("commit", w.commit.quantile(0.5), map[string]float64{
		"engine.Update": upd.quantile(0.5), "version.Commit": com.quantile(0.5),
	})
	return nil
}

// parseMs is the parse probe's mean, in milliseconds.
func parseMs(r *run) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.layers["queryparse.parse_us"].Value / 1000
}

// parsedOp is one update op with its tuple parsed.
type parsedOp struct {
	add bool
	rel string
	t   table.Tuple
}

func parseOps(ops []wire.UpdateOp) ([]parsedOp, error) {
	out := make([]parsedOp, len(ops))
	for i, op := range ops {
		t := make(table.Tuple, len(op.Row))
		for j, cell := range op.Row {
			v, err := value.Parse(cell)
			if err != nil {
				return nil, err
			}
			t[j] = v
		}
		out[i] = parsedOp{add: op.Op == "add", rel: op.Rel, t: t}
	}
	return out, nil
}

func applyOps(db *table.Database, ops []parsedOp) error {
	for _, op := range ops {
		if op.add {
			if err := db.Add(op.rel, op.t); err != nil {
				return err
			}
		} else {
			db.Relation(op.rel).Remove(op.t)
		}
	}
	return nil
}
