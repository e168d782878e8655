// Package incdata's root-level benchmarks: one Benchmark per reproduction
// experiment (E1–E19, see the "Experiments" section of README.md).  Each benchmark
// re-runs the corresponding experiment's workload at a representative
// parameter point; cmd/incbench prints the full sweeps as tables.
package incdata_test

import (
	"testing"

	"incdata/internal/certain"
	"incdata/internal/cq"
	"incdata/internal/ctable"
	"incdata/internal/engine"
	"incdata/internal/exchange"
	"incdata/internal/experiments"
	"incdata/internal/order"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/sqlx"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/workload"
)

// ordersDB builds the E1/E2/E3 workload once per benchmark.
func ordersDB(b *testing.B, n int, nullRate float64) *table.Database {
	b.Helper()
	d, _ := workload.Orders(workload.OrdersConfig{Orders: n, PaidFraction: 0.7, NullRate: nullRate, Seed: 42})
	return d
}

func BenchmarkE1UnpaidOrders(b *testing.B) {
	d := ordersDB(b, 2000, 0.3)
	sqlQ := sqlx.Query{
		Select: []string{"o_id"},
		From:   "Order",
		Where:  sqlx.In{Term: sqlx.Col("o_id"), Sub: sqlx.Subquery{Select: "order", From: "Pay"}, Negate: true},
	}
	raQ := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	b.Run("sql-not-in", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sqlx.Eval(sqlQ, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-certain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certain.Naive(raQ, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE2DifferenceAnomaly(b *testing.B) {
	d := workload.Pairs(workload.PairsConfig{RSize: 5000, SSize: 1, SNulls: 1, DomainSize: 50000, Seed: 7})
	sqlQ := sqlx.Query{
		Select: []string{"A"},
		From:   "R",
		Where:  sqlx.In{Term: sqlx.Col("A"), Sub: sqlx.Subquery{Select: "A", From: "S"}, Negate: true},
	}
	raQ := ra.Diff{Left: ra.Base("R"), Right: ra.Base("S")}
	b.Run("sql-not-in", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sqlx.Eval(sqlQ, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-diff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ra.Eval(raQ, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE3Tautology(b *testing.B) {
	d := ordersDB(b, 1000, 0.5)
	sqlQ := sqlx.Query{
		Select: []string{"p_id"},
		From:   "Pay",
		Where: sqlx.AnyOf(
			sqlx.Eq(sqlx.Col("order"), sqlx.ValString("oid1")),
			sqlx.Neq(sqlx.Col("order"), sqlx.ValString("oid1")),
		),
	}
	for i := 0; i < b.N; i++ {
		if _, err := sqlx.Eval(sqlQ, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4CTableStrong(b *testing.B) {
	rRel := table.NewRelation(schema.NewRelation("R", "A"))
	for i := 0; i < 12; i++ {
		rRel.MustAdd(table.NewTuple(value.Int(int64(i + 1))))
	}
	sRel := table.NewRelation(schema.NewRelation("S", "A"))
	sRel.MustAdd(table.NewTuple(value.Null(1)))
	dom := make([]value.Value, 0, 13)
	for i := 0; i < 13; i++ {
		dom = append(dom, value.Int(int64(i+1)))
	}
	for i := 0; i < b.N; i++ {
		diff, err := ctable.Diff(ctable.FromRelation(rRel), ctable.FromRelation(sRel))
		if err != nil {
			b.Fatal(err)
		}
		diff.Worlds(dom, func(*table.Relation) bool { return true })
	}
}

func BenchmarkE5NaiveUCQ(b *testing.B) {
	d := workload.Random(workload.RandomConfig{
		Relations: map[string]int{"R": 2, "S": 2}, TuplesPerRelation: 8,
		DomainSize: 5, Nulls: 3, NullRate: 0.3, Seed: 11,
	})
	q := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certain.Naive(q, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("world-enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certain.ByWorldsCWA(q, d, certain.Options{ExtraFresh: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE6Complexity(b *testing.B) {
	q := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	for _, nulls := range []int{1, 2, 3} {
		d := workload.Random(workload.RandomConfig{
			Relations: map[string]int{"R": 2, "S": 2}, TuplesPerRelation: 20,
			DomainSize: 10, Nulls: nulls, NullRate: 0.2, Seed: int64(nulls),
		})
		b.Run("naive/nulls="+itoa(nulls), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := certain.Naive(q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("worlds/nulls="+itoa(nulls), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := certain.ByWorldsCWA(q, d, certain.Options{ExtraFresh: 1, Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}

func BenchmarkE7Duality(b *testing.B) {
	s := schema.MustNew(schema.WithArity("R", 2))
	d := workload.Random(workload.RandomConfig{
		Relations: map[string]int{"R": 2}, TuplesPerRelation: 12,
		DomainSize: 5, Nulls: 3, NullRate: 0.3, Seed: 17,
	})
	q := cq.Query{Body: []cq.Atom{
		cq.NewAtom("R", cq.V("x"), cq.V("y")),
		cq.NewAtom("R", cq.V("y"), cq.V("z")),
		cq.NewAtom("R", cq.V("z"), cq.V("w")),
	}}
	b.Run("naive-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.EvalBool(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("containment", func(b *testing.B) {
		qd := cq.FromDatabase(d)
		for i := 0; i < b.N; i++ {
			if _, err := cq.Contained(qd, q, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE8CertainO(b *testing.B) {
	s := schema.MustNew(schema.WithArity("R", 2))
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1", "2")
	d.MustAddRow("R", "2", "⊥1")
	q := ra.Base("R")
	b.Run("intersection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certain.ByWorldsCWA(q, d, certain.Options{ExtraFresh: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("certainO-glb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certain.CertainObjectCWA(q, d, certain.Options{ExtraFresh: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE9DivisionCWA(b *testing.B) {
	d, _ := workload.Enroll(workload.EnrollConfig{Students: 2000, Courses: 4, EnrollRate: 0.85, NullRate: 0.02, Seed: 5})
	q := ra.Division{Left: ra.Base("Enroll"), Right: ra.Base("Course")}
	for i := 0; i < b.N; i++ {
		if _, err := certain.Naive(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Exchange(b *testing.B) {
	src := table.NewDatabase(schema.MustNew(schema.NewRelation("Order", "o_id", "product")))
	for i := 0; i < 5000; i++ {
		src.MustAddRow("Order", "oid"+itoa5(i), "pr"+itoa5(i%97))
	}
	m := exchange.Mapping{
		Source: schema.MustNew(schema.NewRelation("Order", "o_id", "product")),
		Target: schema.MustNew(schema.NewRelation("Cust", "cust"), schema.NewRelation("Pref", "cust", "product")),
		Dependencies: []exchange.Dependency{{
			Name:        "order-to-cust",
			Body:        []cq.Atom{cq.NewAtom("Order", cq.V("i"), cq.V("p"))},
			Head:        []cq.Atom{cq.NewAtom("Cust", cq.V("x")), cq.NewAtom("Pref", cq.V("x"), cq.V("p"))},
			Existential: []string{"x"},
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Chase(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11Theorem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Harness{}.E11Theorem(5)
	}
}

// BenchmarkE13EngineBatch measures the engine's concurrent batch path: a
// mixed SQL/certain-answer batch served against one snapshot, serial vs a
// worker pool (the CI bench smoke covers this path).
func BenchmarkE13EngineBatch(b *testing.B) {
	d := ordersDB(b, 500, 0.3)
	eng := engine.New(d)
	sqlQ := sqlx.Query{
		Select: []string{"o_id"},
		From:   "Order",
		Where: sqlx.Exists{
			Sub:    sqlx.Subquery{From: "Pay", Correlate: []sqlx.Correlation{{Inner: "order", Outer: "o_id"}}},
			Negate: true,
		},
	}
	raQ := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	reqs := make([]engine.Request, 64)
	for i := range reqs {
		if i%2 == 0 {
			reqs[i] = engine.Request{SQL: &sqlQ}
		} else {
			reqs[i] = engine.Request{Query: raQ, Opts: engine.Options{Mode: engine.ModeCertain}}
		}
	}
	check := func(b *testing.B, resp []engine.Response) {
		b.Helper()
		for _, r := range resp {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			check(b, eng.Serve(reqs, 1))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			check(b, eng.Serve(reqs, 0))
		}
	})
}

// BenchmarkE14IncrementalViews measures the maintained-view refresh path
// against per-update full re-evaluation on the same update stream (the CI
// bench smoke covers this path).
func BenchmarkE14IncrementalViews(b *testing.B) {
	unpaid := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	update := func(b *testing.B, eng *engine.Engine, i int) {
		b.Helper()
		err := eng.Update(func(db *table.Database) error {
			return db.Add("Order", table.NewTuple(value.String("bench-o"+itoa5(i)), value.String("pr1")))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		eng := engine.New(ordersDB(b, 500, 0.3))
		if err := eng.Register("unpaid", unpaid, engine.Options{Mode: engine.ModeCertain}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			update(b, eng, i)
			if _, err := eng.Answers("unpaid"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		eng := engine.New(ordersDB(b, 500, 0.3))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			update(b, eng, i)
			if _, err := eng.Eval(unpaid, engine.Options{Mode: engine.ModeCertain}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE12Orderings(b *testing.B) {
	a := workload.Random(workload.RandomConfig{Relations: map[string]int{"R": 2}, TuplesPerRelation: 8, DomainSize: 4, Nulls: 3, NullRate: 0.3, Seed: 1})
	c := workload.Random(workload.RandomConfig{Relations: map[string]int{"R": 2}, TuplesPerRelation: 8, DomainSize: 4, Nulls: 3, NullRate: 0.1, Seed: 2})
	b.Run("leq-owa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order.LeqOWA(a, c)
		}
	})
	b.Run("leq-cwa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order.LeqCWA(a, c)
		}
	})
	b.Run("glb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := order.GLBOWA([]*table.Database{a, c}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- small helpers kept out of the library ---

func itoa5(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	var out []byte
	for i > 0 {
		out = append([]byte{digits[i%10]}, out...)
		i /= 10
	}
	return string(out)
}

// BenchmarkE15VersionHistory measures the version subsystem's commit and
// time-travel path on a small stream (the CI bench smoke covers it).
func BenchmarkE15VersionHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Harness{}.E15VersionHistory(30, 4, []int{8}, 50)
	}
}

// BenchmarkE16ParallelScaling measures intra-query morsel parallelism: an
// E5-style join-project UCQ at a size well past the plan layer's parallel
// cutoff, evaluated serially (Workers: 1, the differential oracle the
// parallel path is pinned against) and on a full worker pool (Workers: 0 =
// GOMAXPROCS).  Run with -cpu 1,2,4 the parallel variant shows core-count
// scaling; under -cpu 1 both variants must coincide, which bounds the
// pool's overhead (the CI bench smoke checks exactly that).
func BenchmarkE16ParallelScaling(b *testing.B) {
	d := workload.Random(workload.RandomConfig{
		Relations: map[string]int{"R": 2, "S": 2}, TuplesPerRelation: 4000,
		DomainSize: 504, Nulls: 3, NullRate: 0.02, Seed: 16,
	})
	q := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	eng := engine.New(d)
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := engine.Options{Mode: engine.ModeCertain, Workers: tc.workers}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE17CodedStrings measures the dictionary-coded execution tier
// on the string-heavy catalog workload: a projected item/tag join with
// the coded tier off (the row path, its oracle: binary string keys in
// the join, a tuple allocated per match) and on (monomorphic u64 kernels over
// dictionary codes).  allocs/op is the headline together with ns/op: the
// coded probe hashes raw codes and the gather dedups on code tuples
// before decoding, so both must drop when coded is on.  Run serial and
// on the full worker pool; the CI bench smoke covers both.
func BenchmarkE17CodedStrings(b *testing.B) {
	d := workload.Catalog(workload.CatalogConfig{
		Items: 4000, Categories: 24, Tags: 40, Nulls: 3, NullRate: 0.02, Seed: 17,
	})
	q := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("Item"), As: "I", Attrs: []string{"sku", "category"}},
			Right: ra.Rename{Input: ra.Base("Tagged"), As: "T", Attrs: []string{"sku", "tag"}},
		},
		Attrs: []string{"category", "tag"},
	}
	eng := engine.New(d)
	for _, tc := range []struct {
		name    string
		workers int
		coded   engine.CodedSetting
	}{
		{"serial-off", 1, engine.CodedOff},
		{"serial-on", 1, engine.CodedOn},
		{"parallel-off", 0, engine.CodedOff},
		{"parallel-on", 0, engine.CodedOn},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := engine.Options{Mode: engine.ModeCertain, Workers: tc.workers, Coded: tc.coded}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE18ServerThroughput measures the network server end to end at
// one representative point: two concurrent client sessions firing the
// E18 mixed request stream (queries, updates with commits, ASOF
// time-travel) at a server over real TCP with a subscriber attached.
// The benchmark fails if the remote head answer stops being
// bit-identical to in-process evaluation — throughput that drifts from
// the oracle is not throughput.
func BenchmarkE18ServerThroughput(b *testing.B) {
	h := experiments.Harness{}
	for i := 0; i < b.N; i++ {
		res := h.E18ServerThroughput(800, []int{2}, 100)
		if len(res.Rows) != 1 {
			b.Fatalf("rows: %v", res.Rows)
		}
		if agree := res.Rows[0][len(res.Rows[0])-1]; agree != "true" {
			b.Fatalf("remote answer diverged from in-process evaluation: %v", res.Rows[0])
		}
	}
}

// BenchmarkE19DurableStore measures the durable storage subsystem at one
// representative point: a 30-commit durable stream (checkpoint every 8),
// a cold open recovering the history, a 50-query AsOf sweep over the
// recovered DAG, and a spill join under a 16 KiB build budget.  The
// benchmark fails if the recovered history or the spill join stops being
// bit-identical to the in-memory writing engine.
func BenchmarkE19DurableStore(b *testing.B) {
	h := experiments.Harness{}
	for i := 0; i < b.N; i++ {
		res := h.E19DurableStore(30, 4, []int{8}, 50, 16<<10)
		if len(res.Rows) != 1 {
			b.Fatalf("rows: %v", res.Rows)
		}
		row := res.Rows[0]
		if agree, spill := row[len(row)-2], row[len(row)-1]; agree != "true" || spill != "true" {
			b.Fatalf("durable recovery or spill join diverged: %v", row)
		}
	}
}
