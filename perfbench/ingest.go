package main

// The ingest-recover workload: write-heavy, one closed-loop writer.  A
// bulk load through Database.Add, EnableHistory and Persist (the set-up);
// a stream of small insert/delete commits, each acknowledged after its
// fsync; then Close, a cold engine.Open and an AsOf+query sweep over
// recovered commits.  version, store and Open do most of the work here,
// and table is exercised for writes where analytic exercises it for reads.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"incdata/internal/csvio"
	"incdata/internal/engine"
	"incdata/internal/queryparse"
	"incdata/internal/store"
	"incdata/internal/table"
	"incdata/internal/version"
)

const (
	// ingestOrders sizes the bulk load: ≈1.7 rows per order, ≈50k rows.
	ingestOrders = 30000
	// ingestCommits is the length of the commit stream.  It is a count,
	// not a time, so the history the sweep recovers is the same on two
	// commits; it is also a memory bound, since every checkpoint of the
	// default policy holds a full copy of the database.
	ingestCommits = 240
	// sweepWindow is how many consecutive recovered commits the sweep
	// draws from: a few checkpoints' worth, so it loads checkpoints beyond
	// what Open loads eagerly without materializing the whole history.
	sweepWindow = 64
)

// ingestQuery is the sweep's query: the large-payment selection.
const ingestQuery = "project(select(Pay; amount >= 990); p_id, order)"

// ack is one acknowledged commit as the writer saw it.
type ack struct {
	id version.CommitID
	fp fingerprint // the writer's digest of the committed state
}

func runIngest(r *run) error {
	rs := genOrders(rand.New(rand.NewSource(r.cfg.seed)), ingestOrders)
	var eng *engine.Engine
	var storeDir string
	err := medianSetup(r, func(rep int) (func(), error) {
		db := newDatabase(rs)
		if err := load(db, rs); err != nil {
			return nil, err
		}
		eng = engine.New(db)
		if _, err := eng.EnableHistory(engine.HistoryOptions{}); err != nil {
			return nil, err
		}
		storeDir = filepath.Join(r.cfg.dir, fmt.Sprintf("store%d", rep))
		if err := eng.Persist(storeDir); err != nil {
			return nil, err
		}
		dir := storeDir
		e := eng
		return func() { e.Close(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	r.set("inputs", inputSizes(eng.Snapshot().Database()))
	_, root, err := eng.Head()
	if err != nil {
		return err
	}
	state := dbFingerprint(eng.Snapshot().Database())
	acks := []ack{{id: root, fp: state}}
	var changes []*table.ChangeSet // each commit's delta, for the store probes

	// Commit stream, then the sweep.
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var commit, updateCall, commitCall samples
	end := r.deadline(1)
	streamStart := time.Now()
	for k := 1; k <= ingestCommits; k++ {
		ops, err := parseOps(commitOps(k))
		if err != nil {
			return err
		}
		req := int64(k)
		op := r.tr.begin("commit", 0, req)
		start := time.Now()
		var id version.CommitID
		updateCall.add(r.tr.timed("engine.Update", op, req, func() {
			err = eng.Update(func(db *table.Database) error { return applyOps(db, ops) })
		}))
		if err == nil {
			commitCall.add(r.tr.timed("engine.Commit", op, req, func() { id, err = eng.Commit(fmt.Sprint("c", k)) }))
		}
		d := time.Since(start)
		r.tr.end(op)
		r.attempted.Add(1)
		if err != nil {
			r.opFailed("commit", err)
			continue
		}
		commit.add(d)
		for _, o := range ops {
			if o.add {
				state.add(o.rel, tupleRow(o.t))
			} else {
				state.remove(o.rel, tupleRow(o.t))
			}
		}
		acks = append(acks, ack{id: id, fp: state})
	}
	streamSecs := time.Since(streamStart).Seconds()
	if r.cfg.trace {
		log, err := eng.Log()
		if err != nil {
			return err
		}
		for _, c := range log {
			if c.Delta != nil && !c.Delta.Empty() {
				changes = append(changes, c.Delta)
			}
		}
	}
	headDB := eng.Snapshot().Database()
	if err := eng.Close(); err != nil {
		return err
	}
	if r.cfg.plant == plantDropCommit {
		if err := tearLastCommit(filepath.Join(storeDir, "log.bin")); err != nil {
			return err
		}
	}
	storeBytes := dirBytes(storeDir)

	// Cold open, then the AsOf+query sweep over a window of recovered
	// commits.
	start := time.Now()
	reopened, err := engine.Open(storeDir)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	openMs := float64(time.Since(start).Nanoseconds()) / 1e6
	defer reopened.Close()
	q, err := queryparse.Parse(ingestQuery)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	lo := 0
	if len(acks) > sweepWindow {
		lo = rng.Intn(len(acks) - sweepWindow)
	}
	window := acks[lo:min(len(acks), lo+sweepWindow)]
	var asof, query, asofOnly samples // asofOnly times Engine.AsOf alone
	before := reopened.Stats()
	// The sweep gets the rest of the window, and at least half of it.
	if half := r.deadline(0.5); half.After(end) {
		end = half
	}
	for i := 0; time.Now().Before(end); i++ {
		a := window[rng.Intn(len(window))]
		req := int64(i)
		op := r.tr.begin("asof", 0, req)
		t0 := time.Now()
		var snap *engine.Snapshot
		var err error
		r.tr.timed("engine.AsOf", op, req, func() { snap, err = reopened.AsOf(a.id) })
		t1 := time.Now()
		if err == nil {
			r.tr.timed("engine.Snapshot.Eval", op, req, func() { _, err = snap.Eval(q, engine.Options{}) })
		}
		t2 := time.Now()
		r.tr.end(op)
		r.attempted.Add(1)
		if err != nil {
			r.opFailed("asof", err)
			continue
		}
		asofOnly.add(t1.Sub(t0))
		query.add(t2.Sub(t1))
		asof.add(t2.Sub(t0))
	}
	after := reopened.Stats()
	rss := peakRSSMB()

	// Gate: every acknowledged commit is recovered with the writer's state.
	// The head and the window's commits are compared in full; every other
	// commit through its delta, which chains it to the verified root.
	r.checkRecovered(reopened, acks, window)

	var csv bytes.Buffer
	for _, name := range headDB.RelationNames() {
		if err := csvio.WriteRelation(&csv, headDB.Relation(name)); err != nil {
			return err
		}
	}
	r.set("ops", map[string]any{"commit": commit.summary(), "asof": asof.summary(), "query": query.summary()})
	r.set("history", map[string]any{"commits": len(acks) - 1, "store_bytes": storeBytes, "head_csv_bytes": csv.Len(), "sweep_window": len(window)})
	r.setMetrics(map[string]metric{
		"query_p50_ms": {query.quantile(0.5), "ms"},
		"focus_p50_ms": {asofOnly.quantile(0.5), "ms"},
		"rss_peak_mb":  {rss, "MB"},
	}, withP99(withP99(map[string]metric{
		"setup_s":       r.e2e["setup_s"],
		"commit_p50_ms": {commit.quantile(0.5), "ms"},
		"pin_p50_ms":    {asofOnly.quantile(0.5), "ms"},
		"commit_p95_ms": {commit.quantile(0.95), "ms"},
		"commits_per_s": {float64(commit.n()) / streamSecs, "1/s"},
		"asof_p50_ms":   {asof.quantile(0.5), "ms"},
		"query_p50_ms":  {query.quantile(0.5), "ms"},
		"query_p90_ms":  {query.quantile(0.9), "ms"},
		"open_ms":       {openMs, "ms"},
		"space_amp":     {float64(storeBytes) / float64(csv.Len()), "ratio"},
		"rss_peak_mb":   {rss, "MB"},
	}, "query_p99_ms", &query), "commit_p99_ms", &commit))
	if !r.cfg.trace {
		return nil
	}
	r.set("attribution", r.tr.selfTimes())
	r.layer("engine.plan_cache_hit_ratio", "ratio", cacheHitRatio(before, after))
	r.set("layer.version.asof_us", asofOnly.quantile(0.5)*1000)
	times, err := r.probeQueries([]probeQuery{{name: "sweep", text: ingestQuery, eng: reopened, db: reopened.Snapshot().Database()}})
	if err != nil {
		return err
	}
	if err := r.probeTable(rs, "Order", []int{0}); err != nil {
		return err
	}
	appendMs, err := r.probeStore(rs, changes, storeDir)
	if err != nil {
		return err
	}
	r.attribute("commit", commit.quantile(0.5), map[string]float64{
		"engine.Update":                    updateCall.quantile(0.5),
		"store.Append":                     appendMs,
		"version (Engine.Commit - Append)": commitCall.quantile(0.5) - appendMs,
	})
	t := times["sweep"]
	r.attribute("asof", asof.quantile(0.5), map[string]float64{
		"version.AsOf": asofOnly.quantile(0.5), "engine": t.self, "certain": t.direct - t.plan, "plan": t.plan,
	})
	return nil
}

// tearLastCommit simulates an acknowledged commit whose log record never
// reached the disk: it truncates the log inside the last commit record,
// which drops that record and everything after it.
func tearLastCommit(logPath string) error {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	cut := -1
	for pos := 0; pos+8 <= len(b); {
		n := int(binary.LittleEndian.Uint32(b[pos : pos+4]))
		if pos+8+n > len(b) {
			break
		}
		if rec, err := store.DecodeRecord(b[pos+8 : pos+8+n]); err == nil && rec.Type == store.RecCommit {
			cut = pos + 8 + n - 3
		}
		pos += 8 + n
	}
	if cut < 0 {
		return fmt.Errorf("no commit record in %s", logPath)
	}
	return os.Truncate(logPath, int64(cut))
}

// checkRecovered is the ingest-recover correctness gate.
func (r *run) checkRecovered(eng *engine.Engine, acks []ack, window []ack) {
	log, err := eng.Log()
	if err != nil {
		r.fail("log: %v", err)
		return
	}
	byID := map[version.CommitID]*version.Commit{}
	for _, c := range log {
		byID[c.ID] = c
	}
	full := map[version.CommitID]bool{acks[0].id: true, acks[len(acks)-1].id: true}
	for _, a := range window {
		full[a.id] = true
	}
	for i, a := range acks {
		c, ok := byID[a.id]
		if !ok {
			r.fail("acknowledged commit %d (%s) was not recovered", i, a.id)
			continue
		}
		if i > 0 {
			if len(c.Parents) == 0 || c.Parents[0] != acks[i-1].id {
				r.fail("commit %d (%s): recovered parent %v, want %s", i, a.id, c.Parents, acks[i-1].id)
				continue
			}
			if got := deltaDigest(c.Delta); got != diffDigest(acks[i-1].fp, a.fp) {
				r.fail("commit %d (%s): recovered delta digest differs from the writer's", i, a.id)
			}
		}
		if full[a.id] {
			snap, err := eng.AsOf(a.id)
			if err != nil {
				r.fail("asof %s: %v", a.id, err)
				continue
			}
			if got := dbFingerprint(snap.Database()); got != a.fp {
				r.fail("commit %d (%s): recovered state %+v, writer's %+v", i, a.id, got, a.fp)
			}
		}
	}
}

// deltaDigest is the change a delta makes to a state fingerprint.
func deltaDigest(cs *table.ChangeSet) fingerprint {
	var f fingerprint
	if cs == nil {
		return f
	}
	for _, name := range cs.RelationNames() {
		d := cs.Delta(name)
		for _, t := range d.Inserted {
			f.add(name, tupleRow(t))
		}
		for _, t := range d.Deleted {
			f.remove(name, tupleRow(t))
		}
	}
	return f
}

func diffDigest(before, after fingerprint) fingerprint {
	return fingerprint{N: after.N - before.N, Sum: after.Sum - before.Sum}
}

// probeStore replays the run's commit records into a scratch store (log
// appends with their fsyncs), writes a checkpoint manifest of the bulk
// load, cold-opens the run's store and loads the checkpoint back; then it
// replays the run's deltas through Database.Apply.
// It returns the median Store.Append of a commit record, in milliseconds.
func (r *run) probeStore(rs []rows, changes []*table.ChangeSet, liveStore string) (appendMs float64, err error) {
	dir := filepath.Join(r.cfg.dir, "scratch-store")
	st, err := store.Create(dir)
	if err != nil {
		return 0, err
	}
	recs, _, err := store.ReadLogFile(filepath.Join(liveStore, "log.bin"))
	if err != nil {
		return 0, err
	}
	// Store.Append writes and fsyncs one record; a commit appends its
	// commit record and, every checkpoint, more.
	var appendS samples
	commits := 0
	root := r.tr.begin("probe:store.Append", 0, 0)
	for i, rec := range recs {
		if rec.Type == store.RecCommit {
			commits++
		}
		var aerr error
		d := r.tr.timed("store.Append", root, int64(i), func() { aerr = st.Append(rec) })
		if aerr != nil {
			return 0, fmt.Errorf("append: %w", aerr)
		}
		if rec.Type == store.RecCommit {
			appendS.add(d)
		}
	}
	r.tr.end(root)
	logBytes := dirBytes(dir)
	db := newDatabase(rs)
	if err := load(db, rs); err != nil {
		return 0, err
	}
	var manifest string
	ms, err := r.timeMedian("store.WriteManifest", 3, func() (err error) { manifest, err = st.WriteManifest(db); return err })
	if err != nil {
		return 0, err
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	r.set("layer.store.append_us", appendS.quantile(0.5)*1000)
	r.set("layer.store.fsyncs_per_commit", float64(len(recs))/float64(max(1, commits)))
	r.set("layer.store.bytes_per_commit", float64(logBytes)/float64(max(1, commits)))
	r.set("layer.store.manifest_ms", ms)

	openMs, err := r.timeMedian("store.Open", 5, func() error {
		s, _, err := store.Open(liveStore)
		if err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		return 0, err
	}
	r.set("layer.store.open_ms", openMs)

	// A cold load: each repetition opens the store afresh, so no state
	// loaded by an earlier one is reused; only the load is timed.
	var loads samples
	for i := 0; i < 5; i++ {
		s, _, err := store.Open(dir)
		if err != nil {
			return 0, err
		}
		var lerr error
		loads.add(r.tr.timed("store.LoadDatabase", 0, int64(i), func() {
			var d *table.Database
			if d, lerr = s.LoadDatabase(manifest); lerr != nil {
				return
			}
			for _, name := range d.RelationNames() {
				if lerr = d.Relation(name).Preload(); lerr != nil {
					return
				}
			}
		}))
		s.Close()
		if lerr != nil {
			return 0, lerr
		}
	}
	loadMs := loads.quantile(0.5)
	if err != nil {
		return 0, err
	}
	r.set("layer.store.load_ms", loadMs)

	// Database.Apply: the replay step of AsOf, on the bulk-loaded state.
	var apply samples
	for _, cs := range changes {
		var aerr error
		apply.add(r.tr.timed("table.Database.Apply", 0, 0, func() { aerr = db.Apply(cs) }))
		if aerr != nil {
			return 0, aerr
		}
	}
	r.set("layer.table.apply_us", apply.quantile(0.5)*1000)
	return appendS.quantile(0.5), nil
}
