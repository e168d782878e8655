package plan

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/table"
	"incdata/internal/value"
)

// mustSameCoded asserts the coded path is bit-identical to its oracle,
// the row path, for raw and certain evaluation under the given worker
// budget.
func mustSameCoded(t *testing.T, q ra.Expr, d *table.Database, workers int, label string) {
	t.Helper()
	p, err := Compile(q, d.Schema())
	if err != nil {
		return // compile rejections are covered by the serial differential
	}
	row := EvalConfig{Workers: workers}
	coded := EvalConfig{Workers: workers, Coded: true}
	want, rerr := p.EvalWith(d, row)
	got, cerr := p.EvalWith(d, coded)
	if (rerr == nil) != (cerr == nil) {
		t.Fatalf("%s: error mismatch for %s (workers=%d): row %v, coded %v", label, q, workers, rerr, cerr)
	}
	if rerr == nil && got.CanonicalKey() != want.CanonicalKey() {
		t.Fatalf("%s: EvalWith coded differs for %s (workers=%d)\ncoded: %s\nrow:   %s\nplan:\n%s",
			label, q, workers, got, want, p.Describe())
	}
	wantC, rerr := p.EvalCertainWith(d, row)
	gotC, cerr := p.EvalCertainWith(d, coded)
	if (rerr == nil) != (cerr == nil) {
		t.Fatalf("%s: certain error mismatch for %s (workers=%d): row %v, coded %v", label, q, workers, rerr, cerr)
	}
	if rerr == nil && gotC.CanonicalKey() != wantC.CanonicalKey() {
		t.Fatalf("%s: EvalCertainWith coded differs for %s (workers=%d)\ncoded: %s\nrow:   %s\nplan:\n%s",
			label, q, workers, gotC, wantC, p.Describe())
	}
}

// codedFuzzDB builds a small random incomplete database mixing the three
// value kinds — dictionary-coded strings alongside directly coded ints
// and tagged nulls — so the fuzz corpus crosses kind boundaries inside
// single columns.
func codedFuzzDB(seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(fuzzSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < 8; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				switch rnd.Intn(5) {
				case 0:
					t[j] = value.Null(uint64(rnd.Intn(3) + 1))
				case 1, 2:
					t[j] = value.String(fmt.Sprintf("s%d", rnd.Intn(4)))
				default:
					t[j] = value.Int(int64(rnd.Intn(4)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

// hugeNullDB is fuzzDB with one null outside the code space (id ≥ 2^62)
// planted in every relation, so every coded subtree must detect the
// unencodable relation and fall back — while still answering correctly.
func hugeNullDB(seed int64) *table.Database {
	d := fuzzDB(seed)
	for _, name := range []string{"R", "S", "T"} {
		d.MustAdd(name, table.NewTuple(value.Null(uint64(1)<<62), value.Int(1)))
	}
	return d
}

// TestCodedMatchesRowFuzz pins the coded path bit-identical to the row
// path across the full random operator corpus, crossed
// with serial and parallel evaluation and with databases of pure-int,
// mixed-kind, and unencodable (huge null id) values — the last forcing
// the eligibility fallback on every plan.
func TestCodedMatchesRowFuzz(t *testing.T) {
	withParallelCutoff(t, 1)
	trials := 400
	if testing.Short() {
		trials = 60
	}
	s := fuzzSchema()
	for i := 0; i < trials; i++ {
		g := &exprGen{rnd: rand.New(rand.NewSource(int64(5000 + i))), s: s}
		q := g.expr(3)
		var d *table.Database
		switch i % 3 {
		case 0:
			d = fuzzDB(int64(i % 7))
		case 1:
			d = codedFuzzDB(int64(i % 7))
		default:
			d = hugeNullDB(int64(i % 7))
		}
		for _, workers := range []int{1, 2, 4} {
			mustSameCoded(t, q, d, workers, "fuzz")
		}
	}
}

// largeStringDB is largeDB with string-dominated columns: the workload
// the coded tier exists for, where the row path pays for per-value
// string hashing and key encoding.
func largeStringDB(tuples int, seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(fuzzSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < tuples; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				if rnd.Intn(50) == 0 {
					t[j] = value.Null(uint64(rnd.Intn(3) + 1))
				} else {
					t[j] = value.String(fmt.Sprintf("key-%03d", rnd.Intn(40)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

// TestCodedLargeJoin exercises the coded kernels at the production
// cutoff on relations big enough to fill many chunks and take the
// partitioned-join path — string-heavy (dictionary codes) and int-only
// (directly embedded codes): coded partition indexes, coded select-joins,
// coded diffs, and a union mixing an eligible branch with a row-path
// branch.
func TestCodedLargeJoin(t *testing.T) {
	queries := map[string]ra.Expr{
		"join": ra.Project{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
			Attrs: []string{"a", "c"},
		},
		"select-join": ra.Select{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
			Pred:  ra.Neq(ra.Attr("a"), ra.Attr("c")),
		},
		"project-diff": ra.Diff{
			Left:  ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		},
		"union-mixed": ra.Union{
			Left:  ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		},
	}
	dbs := map[string]*table.Database{
		"strings": largeStringDB(1500, 17),
		"ints":    largeDB(1500, 11),
	}
	for dname, d := range dbs {
		for name, q := range queries {
			for _, workers := range []int{1, 2, 4, 8} {
				mustSameCoded(t, q, d, workers, dname+"/"+name)
			}
		}
	}
}

// TestCodedEligible pins the coded eligibility gate.  Its shape half:
// plans that only adopt existing tuples (bare scans, filters,
// whole-tuple diffs) stay on the row path, plans that build fresh output
// tuples (π, ⋈, projected diffs) take the coded one.  Beyond the shape,
// every base relation the subtree reads must encode cleanly — a single
// value outside the code space (a null with id ≥ 2^62) disqualifies the
// subtree.
func TestCodedEligible(t *testing.T) {
	join := ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}
	proj := ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}}

	check := func(d *table.Database, q ra.Expr, want bool, label string) {
		t.Helper()
		p, err := Compile(q, d.Schema())
		if err != nil {
			t.Fatalf("%s: compile %s: %v", label, q, err)
		}
		c := newPctx(d, EvalConfig{Coded: true}, nil)
		if got := codedEligible(p.root, c); got != want {
			t.Errorf("%s: codedEligible(%s) = %v, want %v\nplan:\n%s", label, q, got, want, p.Describe())
		}
	}

	clean := codedFuzzDB(1)
	shapes := []struct {
		q    ra.Expr
		want bool
	}{
		{ra.Base("R"), false},
		{ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("a"), ra.LitInt(0))}, false},
		{ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")}, false},
		{proj, true},
		{join, true},
		{ra.Diff{
			Left:  ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		}, true},
	}
	for _, tc := range shapes {
		check(clean, tc.q, tc.want, "clean")
	}

	huge := hugeNullDB(1)
	check(huge, proj, false, "huge-null")
	check(huge, join, false, "huge-null")

	// The gate is per-relation: a subtree reading only clean relations
	// stays eligible even when another relation of the database does not
	// encode.
	partial := codedFuzzDB(2)
	partial.MustAdd("T", table.NewTuple(value.Null(uint64(1)<<62), value.Int(1)))
	check(partial, join, true, "partial")
	check(partial, ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}}, false, "partial")
}

// TestCodedFallbackMidDictionary pins correctness when predicate
// constants miss the dictionary: a filter comparing against a string the
// database never mentions must keep nothing on =, everything on ≠, on
// every path.
func TestCodedFallbackMidDictionary(t *testing.T) {
	d := largeStringDB(600, 23)
	absent := ra.Select{
		Input: ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
		Pred:  ra.Eq(ra.Attr("a"), ra.LitString("never-in-db")),
	}
	absentNeq := ra.Select{
		Input: ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
		Pred:  ra.Neq(ra.Attr("a"), ra.LitString("never-in-db")),
	}
	for _, workers := range []int{1, 4} {
		mustSameCoded(t, absent, d, workers, "absent-eq")
		mustSameCoded(t, absentNeq, d, workers, "absent-neq")
	}
}

// TestCodedScratchLifetime audits the producer-owned scratch contract
// of the coded tier: tuples a consumer adopts out of a coded gather
// (decoded into slab-carved storage) must stay valid after the coded
// chunks and selection vectors they were gathered from are recycled and
// refilled by later (including concurrent) evaluations.  Run under -race
// in CI, this also catches any write to a recycled buffer that still
// aliases adopted state.
func TestCodedScratchLifetime(t *testing.T) {
	d := largeStringDB(800, 21)
	q := ra.Project{
		Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
		Attrs: []string{"a", "c"},
	}
	p, err := Compile(q, d.Schema())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !codedEligible(p.root, newPctx(d, EvalConfig{Coded: true}, nil)) {
		t.Fatalf("test query must take the coded path")
	}
	res, err := p.EvalWith(d, EvalConfig{Coded: true})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}

	// Adopt the result's tuples and deep-copy their values.
	var adopted []table.Tuple
	var copies [][]value.Value
	res.Each(func(tp table.Tuple) bool {
		adopted = append(adopted, tp)
		cp := make([]value.Value, len(tp))
		copy(cp, tp)
		copies = append(copies, cp)
		return true
	})
	if len(adopted) == 0 {
		t.Fatalf("test query produced no tuples; corpus is wrong")
	}

	// Churn the coded chunk and selection pools hard: many more
	// evaluations, on multiple goroutines, reusing the same process-wide
	// pools.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			d2 := largeStringDB(400, seed)
			for i := 0; i < 8; i++ {
				if _, err := p.EvalWith(d2, EvalConfig{Workers: 1 + int(seed)%3, Coded: true}); err != nil {
					t.Errorf("churn eval: %v", err)
					return
				}
			}
		}(int64(30 + g))
	}
	wg.Wait()

	for i, tp := range adopted {
		for j := range tp {
			if tp[j] != copies[i][j] {
				t.Fatalf("adopted tuple %d mutated after pool churn: %v != %v", i, tp, copies[i])
			}
		}
	}
}
