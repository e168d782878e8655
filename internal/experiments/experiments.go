// Package experiments implements the reproduction experiments E1–E19
// indexed in the "Experiments" section of README.md.  The paper (a theory keynote) has no numbered
// tables or figures; each experiment regenerates one of its worked examples
// or checkable claims, at parameterised scale, and prints the rows recorded
// in README.md.  The same code backs cmd/incbench (human-readable
// output) and the root-level Go benchmarks (one Benchmark per experiment).
//
// All query evaluation goes through the engine facade (internal/engine): a
// Harness carries the evaluation settings (planner on/off) and spins up
// one engine per generated database, exactly as a serving workload would.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"incdata/internal/cq"
	"incdata/internal/ctable"
	"incdata/internal/engine"
	"incdata/internal/hom"
	"incdata/internal/order"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/sqlx"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/version"
	"incdata/internal/workload"
)

// Harness carries the evaluation settings shared by every experiment; the
// zero value evaluates through the engine with the planner on.
type Harness struct {
	// Planner selects the engine's evaluation path for every query the
	// experiments run.
	Planner engine.PlannerSetting

	// Workers is the intra-query worker budget passed to every evaluation
	// (engine.Options.Workers): 0 resolves to GOMAXPROCS, 1 forces the
	// serial oracle path.  E16 sweeps its own worker counts on top.
	Workers int

	// Coded selects the dictionary-coded execution tier of planned
	// evaluation or the row oracle (engine.Options.Coded).
	Coded engine.CodedSetting
}

// engine builds the evaluation engine for one generated database.
func (h Harness) engine(d *table.Database) *engine.Engine { return engine.New(d) }

// opts is the engine options for a mode under the harness's settings.
func (h Harness) opts(m engine.Mode) engine.Options {
	return engine.Options{Mode: m, Planner: h.Planner, Workers: h.Workers, Coded: h.Coded}
}

// mustRel unwraps an engine evaluation that cannot fail in a healthy
// experiment run.
func mustRel(r *table.Relation, err error) *table.Relation {
	if err != nil {
		panic(err)
	}
	return r
}

// Result is the printable outcome of one experiment.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
	// Seconds is the wall-clock time the experiment took; cmd/incbench
	// archives it to compare planner-on and planner-off runs.
	Seconds float64 `json:"seconds"`
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	if r.Notes != "" {
		b.WriteString(r.Notes)
		b.WriteString("\n")
	}
	return b.String()
}

func itoa(i int) string           { return fmt.Sprintf("%d", i) }
func ftoa(f float64) string       { return fmt.Sprintf("%.2f", f) }
func dtoa(d time.Duration) string { return d.Round(time.Microsecond).String() }

// sqlNotIn is the introduction's SQL query.
func sqlNotIn() sqlx.Query {
	return sqlx.Query{
		Select: []string{"o_id"},
		From:   "Order",
		Where:  sqlx.In{Term: sqlx.Col("o_id"), Sub: sqlx.Subquery{Select: "order", From: "Pay"}, Negate: true},
	}
}

// sqlNotExists is the correlated NOT EXISTS rewrite.
func sqlNotExists() sqlx.Query {
	return sqlx.Query{
		Select: []string{"o_id"},
		From:   "Order",
		Where: sqlx.Exists{
			Sub:    sqlx.Subquery{From: "Pay", Correlate: []sqlx.Correlation{{Inner: "order", Outer: "o_id"}}},
			Negate: true,
		},
	}
}

// certainUnpaid counts the orders that are unpaid in every valuation: an
// order is certainly unpaid iff no payment references it by constant and no
// payment has a null order reference (a null could pay for it).
func certainUnpaid(d *table.Database) int {
	nullPayments := false
	referenced := map[value.Value]bool{}
	d.Relation("Pay").Each(func(t table.Tuple) bool {
		if t[1].IsNull() {
			nullPayments = true
		} else {
			referenced[t[1]] = true
		}
		return true
	})
	if nullPayments {
		return 0
	}
	count := 0
	d.Relation("Order").Each(func(t table.Tuple) bool {
		if !referenced[t[0]] {
			count++
		}
		return true
	})
	return count
}

// E1UnpaidOrders sweeps the orders/payments workload over sizes and null
// rates and compares the SQL NOT IN answer, the SQL NOT EXISTS rewrite
// (the sound "possibly unpaid" over-approximation), and tuple-level certain
// answers against the generator's ground truth.
func (h Harness) E1UnpaidOrders(sizes []int, nullRates []float64) Result {
	res := Result{
		ID:     "E1",
		Title:  "Unpaid-orders anomaly: SQL 3VL vs certain answers (§1)",
		Header: []string{"orders", "nullRate", "trulyUnpaid", "sqlNotIn", "sqlNotExists", "certainUnpaid", "notInFalseNeg"},
		Notes: "sqlNotIn collapses to 0 as soon as a single payment has a null order reference;\n" +
			"NOT EXISTS returns the sound possible-unpaid over-approximation; certainUnpaid is the sound lower bound.",
	}
	for _, n := range sizes {
		for _, rate := range nullRates {
			d, unpaid := workload.Orders(workload.OrdersConfig{Orders: n, PaidFraction: 0.7, NullRate: rate, Seed: 42})
			eng := h.engine(d)
			notIn := mustRel(eng.SQL(sqlNotIn()))
			notExists := mustRel(eng.SQL(sqlNotExists()))
			cert := certainUnpaid(d)
			falseNeg := len(unpaid) - notIn.Len()
			if falseNeg < 0 {
				falseNeg = 0
			}
			res.Rows = append(res.Rows, []string{
				itoa(n), ftoa(rate), itoa(len(unpaid)), itoa(notIn.Len()), itoa(notExists.Len()), itoa(cert), itoa(falseNeg),
			})
		}
	}
	return res
}

// E2Difference reproduces the R − S anomaly: SQL returns ∅ whenever S
// contains a null although |R| > |S| forces nonemptiness; the Boolean
// certain answer "R − S is nonempty" is computed from the cardinalities.
func (h Harness) E2Difference(rSizes []int) Result {
	res := Result{
		ID:     "E2",
		Title:  "R − S with a null in S: SQL vs certainty (§1)",
		Header: []string{"|R|", "|S|", "sqlAnswer", "naiveCertain", "certainNonempty"},
		Notes:  "SQL answers ∅ for every |R|; the certain Boolean answer is true whenever |R| > |S|.",
	}
	for _, n := range rSizes {
		d := workload.Pairs(workload.PairsConfig{RSize: n, SSize: 1, SNulls: 1, DomainSize: 10 * n, Seed: 7})
		eng := h.engine(d)
		q := sqlx.Query{
			Select: []string{"A"},
			From:   "R",
			Where:  sqlx.In{Term: sqlx.Col("A"), Sub: sqlx.Subquery{Select: "A", From: "S"}, Negate: true},
		}
		sqlAns := mustRel(eng.SQL(q))
		naive, _ := eng.Eval(ra.Diff{Left: ra.Base("R"), Right: ra.Base("S")}, h.opts(engine.ModeCertain))
		rLen := d.Relation("R").Len()
		sLen := d.Relation("S").Len()
		res.Rows = append(res.Rows, []string{
			itoa(rLen), itoa(sLen), itoa(sqlAns.Len()), itoa(naive.Len()), fmt.Sprintf("%v", rLen > sLen),
		})
	}
	return res
}

// E3Tautology reproduces Grant's example: the tautological selection drops
// the null row under SQL 3VL but is certain under every interpretation.
func (h Harness) E3Tautology() Result {
	d := table.NewDatabase(workload.OrdersSchema())
	d.MustAddRow("Order", "oid1", "pr1")
	d.MustAddRow("Order", "oid2", "pr2")
	d.MustAddRow("Pay", "pid1", "⊥1", "100")
	eng := h.engine(d)

	sqlQ := sqlx.Query{
		Select: []string{"p_id"},
		From:   "Pay",
		Where: sqlx.AnyOf(
			sqlx.Eq(sqlx.Col("order"), sqlx.ValString("oid1")),
			sqlx.Neq(sqlx.Col("order"), sqlx.ValString("oid1")),
		),
	}
	sqlAns := mustRel(eng.SQL(sqlQ))

	raQ := ra.Project{
		Input: ra.Select{
			Input: ra.Base("Pay"),
			Pred: ra.AnyOf(
				ra.Eq(ra.Attr("order"), ra.LitString("oid1")),
				ra.Neq(ra.Attr("order"), ra.LitString("oid1")),
			),
		},
		Attrs: []string{"p_id"},
	}
	cwaOpts := h.opts(engine.ModeCertainCWA)
	cwaOpts.ExtraFresh = 1
	truth, _ := eng.Eval(raQ, cwaOpts)

	return Result{
		ID:     "E3",
		Title:  "Tautological selection σ[order='oid1' ∨ order≠'oid1'] (§1, Grant 1977)",
		Header: []string{"evaluation", "answer size", "contains pid1"},
		Rows: [][]string{
			{"SQL 3VL", itoa(sqlAns.Len()), fmt.Sprintf("%v", sqlAns.Contains(table.MustParseTuple("pid1")))},
			{"certain (world enumeration)", itoa(truth.Len()), fmt.Sprintf("%v", truth.Contains(table.MustParseTuple("pid1")))},
		},
		Notes: "The certain answer contains pid1; SQL's three-valued logic loses it.",
	}
}

// E4CTables verifies the strong-representation-system property of c-tables
// on R − S instances of growing size: the worlds of the computed c-table
// coincide with the direct images {v(R) − v(S)}.
func (h Harness) E4CTables(rSizes []int) Result {
	res := Result{
		ID:     "E4",
		Title:  "Conditional tables as a strong representation system for R − S (§2)",
		Header: []string{"|R|", "ctable rows", "worlds", "matchesDirect", "time"},
	}
	for _, n := range rSizes {
		rRel := table.NewRelation(schema.NewRelation("R", "A"))
		for i := 0; i < n; i++ {
			rRel.MustAdd(table.NewTuple(value.Int(int64(i + 1))))
		}
		sRel := table.NewRelation(schema.NewRelation("S", "A"))
		sRel.MustAdd(table.NewTuple(value.Null(1)))

		start := time.Now()
		diff, _ := ctable.Diff(ctable.FromRelation(rRel), ctable.FromRelation(sRel))
		dom := make([]value.Value, 0, n+1)
		for i := 0; i < n; i++ {
			dom = append(dom, value.Int(int64(i+1)))
		}
		dom = append(dom, value.String("fresh"))
		worlds := diff.WorldSet(dom)
		elapsed := time.Since(start)

		// Direct evaluation world by world.
		matches := true
		for _, c := range dom {
			want := rRel.Clone()
			want.Remove(table.NewTuple(c))
			found := false
			for _, w := range worlds {
				if w.Equal(want) {
					found = true
					break
				}
			}
			if !found {
				matches = false
			}
		}
		res.Rows = append(res.Rows, []string{
			itoa(n), itoa(len(diff.Rows)), itoa(len(worlds)), fmt.Sprintf("%v", matches), dtoa(elapsed),
		})
	}
	return res
}

// E5NaiveUCQ checks equation (4) — naïve evaluation computes certain
// answers for UCQs — on random naïve databases, and exhibits the π(R−S)
// counterexample outside the fragment.
func (h Harness) E5NaiveUCQ(trials int, nullCounts []int) Result {
	res := Result{
		ID:     "E5",
		Title:  "Naïve evaluation = certain answers for UCQs; failure beyond (§2, eq. 4)",
		Header: []string{"nulls", "trials", "ucqAgree", "ucqDisagree", "projDiffSpurious"},
	}
	ucq := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	projDiff := ra.Project{Input: ra.Diff{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"#1"}}
	for _, k := range nullCounts {
		agree, disagree, spurious := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			d := workload.Random(workload.RandomConfig{
				Relations:         map[string]int{"R": 2, "S": 2},
				TuplesPerRelation: 6,
				DomainSize:        4,
				Nulls:             k,
				NullRate:          0.35,
				Seed:              int64(1000*k + trial),
			})
			eng := h.engine(d)
			cmpOpts := h.opts(engine.ModeCertainCWA)
			cmpOpts.ExtraFresh = 1
			cmpOpts.MaxWorlds = 200000
			cmp, err := eng.Compare(ucq, cmpOpts)
			if err != nil {
				continue
			}
			if cmp.Agree {
				agree++
			} else {
				disagree++
			}
			cmp2, err := eng.Compare(projDiff, cmpOpts)
			if err == nil && len(cmp2.SpuriousInNaive) > 0 {
				spurious++
			}
		}
		res.Rows = append(res.Rows, []string{itoa(k), itoa(trials), itoa(agree), itoa(disagree), itoa(spurious)})
	}
	res.Notes = "ucqDisagree must be 0 (the paper's eq. 4); projDiffSpurious counts instances where naïve\n" +
		"evaluation of π(R−S) returns non-certain tuples, the paper's counterexample."
	return res
}

// E6Complexity exhibits the complexity separation: naïve evaluation scales
// with the database, world enumeration scales exponentially with the number
// of nulls.
func (h Harness) E6Complexity(dbSizes []int, nullCounts []int) Result {
	res := Result{
		ID:     "E6",
		Title:  "Data-complexity separation: naïve evaluation vs world enumeration (§2)",
		Header: []string{"tuples", "nulls", "naiveTime", "worlds", "worldTime"},
	}
	q := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	for _, size := range dbSizes {
		for _, k := range nullCounts {
			d := workload.Random(workload.RandomConfig{
				Relations:         map[string]int{"R": 2, "S": 2},
				TuplesPerRelation: size,
				DomainSize:        size * 2,
				Nulls:             k,
				NullRate:          0.2,
				Seed:              int64(size + k),
			})
			eng := h.engine(d)
			start := time.Now()
			if _, err := eng.Eval(q, h.opts(engine.ModeCertain)); err != nil {
				continue
			}
			naiveTime := time.Since(start)

			cwaOpts := h.opts(engine.ModeCertainCWA)
			cwaOpts.ExtraFresh = 1
			cwaOpts.MaxWorlds = 1 << 17
			cwaOpts.Workers = 4
			start = time.Now()
			worlds := 0
			_, err := eng.Eval(q, cwaOpts)
			worldTime := time.Since(start)
			worldCell := "skipped"
			if err == nil {
				dom := len(d.Consts()) + 1
				worlds = 1
				for i := 0; i < len(d.Nulls()); i++ {
					worlds *= dom
				}
				worldCell = dtoa(worldTime)
			}
			res.Rows = append(res.Rows, []string{itoa(d.TotalTuples()), itoa(len(d.Nulls())), dtoa(naiveTime), itoa(worlds), worldCell})
		}
	}
	res.Notes = "worldTime grows as |dom|^#nulls while naiveTime tracks the database size — the paper's\n" +
		"complexity gap (AC0 naïve evaluation vs coNP certain answers) made concrete."
	return res
}

// E7Duality cross-checks the three equivalent ways of computing certain
// answers to Boolean CQs under OWA (§4): naïve evaluation D ⊨ Q, the
// containment Q_D ⊆ Q, and the homomorphism test.
func (h Harness) E7Duality(atomCounts []int, trials int) Result {
	res := Result{
		ID:     "E7",
		Title:  "Duality: certain CQ answers = containment = naïve evaluation (§4)",
		Header: []string{"atoms", "trials", "allAgree", "naiveTime", "containmentTime"},
	}
	s := schema.MustNew(schema.WithArity("R", 2))
	for _, atoms := range atomCounts {
		agree := true
		var naiveTotal, contTotal time.Duration
		for trial := 0; trial < trials; trial++ {
			d := workload.Random(workload.RandomConfig{
				Relations:         map[string]int{"R": 2},
				TuplesPerRelation: 8,
				DomainSize:        4,
				Nulls:             3,
				NullRate:          0.3,
				Seed:              int64(100*atoms + trial),
			})
			// A chain CQ of the given length: ∃x0..xk R(x0,x1) ∧ ... ∧ R(x_{k-1},x_k).
			var body []cq.Atom
			for i := 0; i < atoms; i++ {
				body = append(body, cq.NewAtom("R", cq.V(fmt.Sprintf("x%d", i)), cq.V(fmt.Sprintf("x%d", i+1))))
			}
			q := cq.Query{Body: body}

			start := time.Now()
			naive, err := q.EvalBool(d)
			naiveTotal += time.Since(start)
			if err != nil {
				continue
			}
			start = time.Now()
			qd := cq.FromDatabase(d)
			viaCont, err := cq.Contained(qd, q, s)
			contTotal += time.Since(start)
			if err != nil || naive != viaCont {
				agree = false
			}
		}
		res.Rows = append(res.Rows, []string{
			itoa(atoms), itoa(trials), fmt.Sprintf("%v", agree),
			dtoa(naiveTotal / time.Duration(trials)), dtoa(contTotal / time.Duration(trials)),
		})
	}
	return res
}

// E8CertainO reproduces the Section 5.3 example: the intersection-based
// certain answer is not a ⪯cwa lower bound of the answer set, while
// certainO (the GLB) is, and certainO coincides with the naïve answer.
func (h Harness) E8CertainO() Result {
	s := schema.MustNew(schema.WithArity("R", 2))
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1", "2")
	d.MustAddRow("R", "2", "⊥1")
	q := ra.Base("R")
	eng := h.engine(d)

	cwaOpts := h.opts(engine.ModeCertainCWA)
	cwaOpts.ExtraFresh = 2
	glbOpts := h.opts(engine.ModeCertainObject)
	glbOpts.ExtraFresh = 2
	inter, _ := eng.Eval(q, cwaOpts)
	glb, _ := eng.Eval(q, glbOpts)
	naiveRaw, _ := eng.Eval(q, h.opts(engine.ModeNaive))

	// Collect the answer relations over the worlds as databases for the
	// lower-bound checks.
	var answers []*table.Database
	worldsDom := []value.Value{value.Int(1), value.Int(2), value.Int(3)}
	for _, c := range worldsDom {
		w := table.NewDatabase(s)
		w.MustAddRow("R", "1", "2")
		w.MustAdd("R", table.NewTuple(value.Int(2), c))
		answers = append(answers, w)
	}
	toDB := func(r *table.Relation) *table.Database {
		out := table.NewDatabase(s)
		for _, t := range r.Tuples() {
			out.MustAdd("R", t)
		}
		return out
	}
	interLBCWA := order.IsLowerBound(order.CWA, toDB(inter), answers)
	interLBOWA := order.IsLowerBound(order.OWA, toDB(inter), answers)
	glbLBOWA := order.IsLowerBound(order.OWA, toDB(glb), answers)
	naiveEquiv := hom.EquivalentOWA(toDB(glb), toDB(naiveRaw))

	return Result{
		ID:     "E8",
		Title:  "Intersection vs certainO on R = {(1,2),(2,⊥)} (§5.3)",
		Header: []string{"object", "tuples", "⪯owa lower bound", "⪯cwa lower bound", "≡ naïve answer"},
		Rows: [][]string{
			{"intersection {(1,2)}", itoa(inter.Len()), fmt.Sprintf("%v", interLBOWA), fmt.Sprintf("%v", interLBCWA), "false"},
			{"certainO (GLB)", itoa(glb.Len()), fmt.Sprintf("%v", glbLBOWA), "n/a", fmt.Sprintf("%v", naiveEquiv)},
		},
		Notes: "The intersection-based answer fails to be a ⪯cwa lower bound; certainO keeps the\n" +
			"partially-known tuple (2,⊥) and is hom-equivalent to the naïvely evaluated answer (eq. 9).",
	}
}

// E9Division verifies that cwa-naïve evaluation works for division (RAcwa)
// queries on generated enrolment databases of growing size.
func (h Harness) E9Division(studentCounts []int, nullRates []float64) Result {
	res := Result{
		ID:     "E9",
		Title:  "Division (RAcwa) under CWA: naïve evaluation is correct (§6.2)",
		Header: []string{"students", "nullRate", "naiveAnswer", "agreesWithWorlds", "naiveTime"},
	}
	q := ra.Division{Left: ra.Base("Enroll"), Right: ra.Base("Course")}
	for _, n := range studentCounts {
		for _, rate := range nullRates {
			d, _ := workload.Enroll(workload.EnrollConfig{Students: n, Courses: 3, EnrollRate: 0.8, NullRate: rate, Seed: int64(n)})
			eng := h.engine(d)
			start := time.Now()
			naive, err := eng.Eval(q, h.opts(engine.ModeCertain))
			naiveTime := time.Since(start)
			if err != nil {
				continue
			}
			agreeCell := "skipped"
			if len(d.Nulls()) <= 3 {
				cwaOpts := h.opts(engine.ModeCertainCWA)
				cwaOpts.ExtraFresh = 1
				cwaOpts.MaxWorlds = 1 << 17
				cwaOpts.Workers = 4
				truth, err := eng.Eval(q, cwaOpts)
				if err == nil {
					agreeCell = fmt.Sprintf("%v", naive.Equal(truth))
				}
			}
			res.Rows = append(res.Rows, []string{itoa(n), ftoa(rate), itoa(naive.Len()), agreeCell, dtoa(naiveTime)})
		}
	}
	res.Notes = "agreesWithWorlds is checked exhaustively when the instance has at most 3 nulls (world enumeration\n" +
		"is exponential in the null count); RAcwa queries must always agree where the check runs."
	return res
}

// E10Exchange chases the introduction's schema mapping at scale and answers
// a UCQ over the exchanged data.
func (h Harness) E10Exchange(orderCounts []int) Result {
	res := Result{
		ID:     "E10",
		Title:  "Schema mappings and the chase: Order(i,p) → Cust(x), Pref(x,p) (§1, §7)",
		Header: []string{"orders", "targetTuples", "inventedNulls", "certainPrefs", "chaseTime"},
	}
	for _, n := range orderCounts {
		src, _ := workload.Orders(workload.OrdersConfig{Orders: n, PaidFraction: 0, NullRate: 0, Seed: 9})
		m := paperMapping()
		start := time.Now()
		target, err := m.Chase(projectOrders(src))
		elapsed := time.Since(start)
		if err != nil {
			continue
		}
		q := cq.Single(cq.Query{Name: "q", Head: []string{"p"}, Body: []cq.Atom{cq.NewAtom("Pref", cq.V("x"), cq.V("p"))}})
		ans, err := q.Eval(target)
		certainPrefs := 0
		if err == nil {
			certainPrefs = ans.CompletePart().Len()
		}
		res.Rows = append(res.Rows, []string{
			itoa(n), itoa(target.TotalTuples()), itoa(len(target.Nulls())), itoa(certainPrefs), dtoa(elapsed),
		})
	}
	return res
}

// E11Theorem runs the naïve-evaluation theorem harness over families of
// small instances: equation (9) must hold for monotone generic queries and
// fail for the non-monotone counterexample.
func (h Harness) E11Theorem(instanceCount int) Result {
	monotone := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a"},
	}
	nonMonotone := ra.Project{Input: ra.Diff{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"#1"}}

	holdsMono, holdsNon := 0, 0
	total := 0
	for i := 0; i < instanceCount; i++ {
		d := workload.Random(workload.RandomConfig{
			Relations:         map[string]int{"R": 2, "S": 2},
			TuplesPerRelation: 3,
			DomainSize:        3,
			Nulls:             2,
			NullRate:          0.4,
			Seed:              int64(i),
		})
		total++
		if h.theoremHolds(monotone, d) {
			holdsMono++
		}
		if h.theoremHolds(nonMonotone, d) {
			holdsNon++
		}
	}
	return Result{
		ID:     "E11",
		Title:  "Naïve-evaluation theorem (eq. 9) verified on small-instance families (§6.1)",
		Header: []string{"query", "instances", "certainO = Q(D)"},
		Rows: [][]string{
			{"π_a(R ⋈ S)  (monotone, generic)", itoa(total), itoa(holdsMono)},
			{"π_A(R − S)  (non-monotone)", itoa(total), itoa(holdsNon)},
		},
		Notes: "The monotone query must satisfy the theorem on every instance; the non-monotone one fails\n" +
			"on instances where the difference interacts with nulls.",
	}
}

func (h Harness) theoremHolds(q ra.Expr, d *table.Database) bool {
	eng := h.engine(d)
	glbOpts := h.opts(engine.ModeCertainObject)
	glbOpts.ExtraFresh = 2
	glbOpts.MaxWorlds = 1 << 20
	glb, err := eng.Eval(q, glbOpts)
	if err != nil {
		return false
	}
	naiveRaw, err := eng.Eval(q, h.opts(engine.ModeNaive))
	if err != nil {
		return false
	}
	return hom.EquivalentOWA(relToDB(glb), relToDB(naiveRaw))
}

func relToDB(r *table.Relation) *table.Database {
	s := schema.MustNew(schema.WithArity("Ans", r.Arity()))
	d := table.NewDatabase(s)
	for _, t := range r.Tuples() {
		d.MustAdd("Ans", t)
	}
	return d
}

// E13EngineBatch measures the engine's concurrent batch API: a mixed batch
// of SQL and certain-answer queries served against one consistent snapshot
// on worker pools of growing size, while a writer keeps committing updates
// to the live database.  The speedup column is the tentpole number: how
// much throughput the snapshot-isolated worker pool buys over serial
// evaluation of the same batch (bounded by the core count — on one CPU it
// hovers around 1x).
func (h Harness) E13EngineBatch(queries int, workerCounts []int) Result {
	res := Result{
		ID:     "E13",
		Title:  "Engine batch throughput: snapshot-isolated worker pool (engine facade)",
		Header: []string{"workers", "queries", "seconds", "qps", "speedup", "agree"},
		Notes: "All sweeps serve one consistent snapshot while a writer commits to the live database;\n" +
			"agree checks every answer against the workers=1 sweep of the same snapshot.\n" +
			fmt.Sprintf("Speedup is bounded by the scheduler: this run had GOMAXPROCS=%d (NumCPU=%d), so the\n"+
				"attainable ceiling is min(workers, %d)x — on a single-CPU host every sweep is ~1x.",
				runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOMAXPROCS(0)),
	}
	if len(workerCounts) == 0 || workerCounts[0] != 1 {
		workerCounts = append([]int{1}, workerCounts...)
	}
	d, _ := workload.Orders(workload.OrdersConfig{Orders: 500, PaidFraction: 0.7, NullRate: 0.3, Seed: 42})
	eng := h.engine(d)

	unpaidRA := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	notExists := sqlNotExists()
	reqs := make([]engine.Request, queries)
	for i := range reqs {
		switch i % 3 {
		case 0:
			reqs[i] = engine.Request{SQL: &notExists}
		case 1:
			reqs[i] = engine.Request{Query: unpaidRA, Opts: h.opts(engine.ModeCertain)}
		default:
			reqs[i] = engine.Request{Query: unpaidRA, Opts: h.opts(engine.ModeNaive)}
		}
	}

	// Every sweep reads this snapshot; the writes below must never show up
	// in any answer.
	snap := eng.Snapshot()
	var baseline []engine.Response
	var serialSecs float64
	for _, workers := range workerCounts {
		// Commit a write between sweeps: snapshot isolation is what keeps
		// the sweeps comparable.
		if err := eng.Update(func(db *table.Database) error {
			return db.Add("Order", table.NewTuple(value.String(fmt.Sprintf("oid-w%d", workers)), value.String("pr-extra")))
		}); err != nil {
			continue
		}
		start := time.Now()
		resp := snap.Serve(reqs, workers)
		elapsed := time.Since(start)

		agree := true
		if baseline == nil {
			baseline = resp
			serialSecs = elapsed.Seconds()
		} else {
			for i := range resp {
				if (resp[i].Err == nil) != (baseline[i].Err == nil) {
					agree = false
					break
				}
				if resp[i].Err == nil && !resp[i].Rel.Equal(baseline[i].Rel) {
					agree = false
					break
				}
			}
		}
		speedup := "-"
		if serialSecs > 0 && elapsed.Seconds() > 0 && workers != 1 {
			speedup = fmt.Sprintf("%.2fx", serialSecs/elapsed.Seconds())
		}
		res.Rows = append(res.Rows, []string{
			itoa(workers), itoa(queries), fmt.Sprintf("%.4f", elapsed.Seconds()),
			fmt.Sprintf("%.0f", float64(queries)/elapsed.Seconds()), speedup, fmt.Sprintf("%v", agree),
		})
	}
	return res
}

// viewUpdate is one pre-generated update step of the E14 stream, expressed
// as concrete tuples so the identical mutation can be committed to the
// maintained-view engine and the full-recompute baseline engine.
type viewUpdate struct {
	rel string
	add bool
	t   table.Tuple
}

// commit applies the update through an engine's write path.
func (u viewUpdate) commit(eng *engine.Engine) error {
	return eng.Update(func(db *table.Database) error {
		if u.add {
			return db.Add(u.rel, u.t)
		}
		db.Relation(u.rel).Remove(u.t)
		return nil
	})
}

// e14Stream pre-generates a deterministic update stream over the orders
// workload: order and payment inserts (some payments with fresh marked
// nulls for their order reference) and deletions of previously present
// tuples.
func e14Stream(d *table.Database, updates int, seed int64) []viewUpdate {
	rng := rand.New(rand.NewSource(seed))
	orders := d.Relation("Order").SortedTuples()
	pays := d.Relation("Pay").SortedTuples()
	nextNull := uint64(1 << 20) // clear of the generator's null ids
	out := make([]viewUpdate, 0, updates)
	for i := 0; i < updates; i++ {
		switch r := rng.Intn(10); {
		case r < 4: // new order
			t := table.NewTuple(value.String(fmt.Sprintf("new-o%d", i)), value.String(fmt.Sprintf("pr%d", rng.Intn(50))))
			orders = append(orders, t)
			out = append(out, viewUpdate{rel: "Order", add: true, t: t})
		case r < 7: // new payment, sometimes with a null order reference
			ref := value.Value(value.String(fmt.Sprintf("new-o%d", rng.Intn(i+1))))
			if rng.Intn(4) == 0 {
				ref = value.Null(nextNull)
				nextNull++
			}
			t := table.NewTuple(value.String(fmt.Sprintf("new-p%d", i)), ref, value.Int(int64(10+rng.Intn(990))))
			pays = append(pays, t)
			out = append(out, viewUpdate{rel: "Pay", add: true, t: t})
		case r < 9 && len(orders) > 0: // delete an order
			j := rng.Intn(len(orders))
			out = append(out, viewUpdate{rel: "Order", add: false, t: orders[j]})
			orders[j] = orders[len(orders)-1]
			orders = orders[:len(orders)-1]
		case len(pays) > 0: // delete a payment
			j := rng.Intn(len(pays))
			out = append(out, viewUpdate{rel: "Pay", add: false, t: pays[j]})
			pays[j] = pays[len(pays)-1]
			pays = pays[:len(pays)-1]
		}
	}
	return out
}

// E14IncrementalViews measures maintained certain-answer views on an
// update stream: one engine registers the unpaid-orders difference and a
// paid-orders join as views (refreshed from the captured tuple deltas on
// every commit), the baseline engine re-evaluates both queries from
// scratch after every commit.  Both sides commit the identical stream;
// the speedup column is the tentpole number — how much cheaper serving
// the maintained answer is than recomputing it, growing with the database
// size since refresh cost tracks the delta, not the data.
func (h Harness) E14IncrementalViews(orderCounts []int, updates int) Result {
	res := Result{
		ID:     "E14",
		Title:  "Incremental certain-answer views: per-update refresh vs full re-evaluation",
		Header: []string{"orders", "updates", "incremental", "full", "speedup", "perRefresh", "agree"},
		Notes: "Each update commits to both engines; the view engine additionally refreshes both\n" +
			"registered views, the baseline re-evaluates both queries; agree compares the\n" +
			"maintained answers against full re-evaluation at the end of the stream.",
	}
	unpaid := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	paid := ra.Project{
		Input: ra.Join{Left: ra.Base("Order"), Right: ra.Rename{Input: ra.Base("Pay"), As: "P", Attrs: []string{"p_id", "o_id", "amount"}}},
		Attrs: []string{"o_id", "amount"},
	}
	queries := map[string]ra.Expr{"unpaid": unpaid, "paid": paid}

	for _, n := range orderCounts {
		d, _ := workload.Orders(workload.OrdersConfig{Orders: n, PaidFraction: 0.7, NullRate: 0.1, Seed: 42})
		viewEng := h.engine(d.Clone())
		fullEng := h.engine(d.Clone())
		for name, q := range queries {
			if err := viewEng.Register(name, q, h.opts(engine.ModeCertain)); err != nil {
				panic(err)
			}
		}
		stream := e14Stream(d, updates, 7)

		var incDur, fullDur time.Duration
		for _, u := range stream {
			start := time.Now()
			if err := u.commit(viewEng); err != nil {
				panic(err)
			}
			for name := range queries {
				mustRel(viewEng.Answers(name))
			}
			incDur += time.Since(start)

			start = time.Now()
			if err := u.commit(fullEng); err != nil {
				panic(err)
			}
			for _, q := range queries {
				mustRel(fullEng.Eval(q, h.opts(engine.ModeCertain)))
			}
			fullDur += time.Since(start)
		}

		agree := true
		for name, q := range queries {
			got := mustRel(viewEng.Answers(name))
			want := mustRel(fullEng.Eval(q, h.opts(engine.ModeCertain)))
			if !got.Equal(want) {
				agree = false
			}
		}
		res.Rows = append(res.Rows, []string{
			itoa(n), itoa(len(stream)),
			fmt.Sprintf("%.4fs", incDur.Seconds()), fmt.Sprintf("%.4fs", fullDur.Seconds()),
			fmt.Sprintf("%.1fx", fullDur.Seconds()/incDur.Seconds()),
			dtoa(incDur / time.Duration(len(stream))),
			fmt.Sprintf("%v", agree),
		})
	}
	return res
}

// E12Orderings measures the homomorphism-based orderings and GLB machinery
// on random database pairs.
func (h Harness) E12Orderings(sizes []int, pairs int) Result {
	res := Result{
		ID:     "E12",
		Title:  "Information orderings ⪯owa/⪯cwa and GLBs on random pairs (§5.2, §5.3)",
		Header: []string{"tuples", "pairs", "owaRelated", "cwaRelated", "avgOrderTime", "avgGLBTime"},
	}
	for _, size := range sizes {
		owaRelated, cwaRelated := 0, 0
		var orderTotal, glbTotal time.Duration
		for i := 0; i < pairs; i++ {
			a := workload.Random(workload.RandomConfig{Relations: map[string]int{"R": 2}, TuplesPerRelation: size, DomainSize: 4, Nulls: 3, NullRate: 0.3, Seed: int64(2*i + 1)})
			b := workload.Random(workload.RandomConfig{Relations: map[string]int{"R": 2}, TuplesPerRelation: size, DomainSize: 4, Nulls: 3, NullRate: 0.1, Seed: int64(2*i + 2)})
			start := time.Now()
			if order.LeqOWA(a, b) {
				owaRelated++
			}
			if order.LeqCWA(a, b) {
				cwaRelated++
			}
			orderTotal += time.Since(start)
			start = time.Now()
			if _, err := order.GLBOWA([]*table.Database{a, b}); err == nil {
				glbTotal += time.Since(start)
			}
		}
		res.Rows = append(res.Rows, []string{
			itoa(size), itoa(pairs), itoa(owaRelated), itoa(cwaRelated),
			dtoa(orderTotal / time.Duration(pairs)), dtoa(glbTotal / time.Duration(pairs)),
		})
	}
	return res
}

// E15VersionHistory measures the version subsystem end to end: a commit
// stream over the orders workload (a batch of captured updates per
// commit, checkpoints every K commits), a time-travel sweep evaluating
// certain answers at random historical commits through the engine's
// AsOf snapshots, and a branch/checkout/merge exercise.  The commit/s and
// asof/s columns are the tentpole throughput numbers; agree verifies that
// sampled historical answers are bit-identical to a from-scratch replay
// of the update stream, and that the merge unified both branches.
func (h Harness) E15VersionHistory(commits, batch int, checkpoints []int, asofQueries int) Result {
	res := Result{
		ID:     "E15",
		Title:  "Version history: commit throughput, time-travel certain answers, merge (commit DAG over deltas)",
		Header: []string{"checkpointK", "commits", "commit/s", "asof", "asof/s", "merge", "conflicts", "agree"},
		Notes: "Each commit captures one batch of update deltas; AsOf replays from the nearest checkpoint;\n" +
			"agree compares sampled historical certain answers against a from-scratch replay engine\n" +
			"and checks the branch merge; merge times a divergent branch/checkout/merge cycle.",
	}
	unpaid := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	certOpts := h.opts(engine.ModeCertain)

	for _, k := range checkpoints {
		d, _ := workload.Orders(workload.OrdersConfig{Orders: 500, PaidFraction: 0.7, NullRate: 0.1, Seed: 42})
		stream := e14Stream(d.Clone(), commits*batch, 11)
		eng := h.engine(d)
		if _, err := eng.EnableHistory(engine.HistoryOptions{CheckpointEvery: k}); err != nil {
			panic(err)
		}

		// Commit stream: one batch of updates per commit.
		var ids []version.CommitID
		start := time.Now()
		for i := 0; i < commits; i++ {
			chunk := stream[i*batch : (i+1)*batch]
			if err := eng.Update(func(db *table.Database) error {
				for _, u := range chunk {
					if u.add {
						if err := db.Add(u.rel, u.t); err != nil {
							return err
						}
					} else {
						db.Relation(u.rel).Remove(u.t)
					}
				}
				return nil
			}); err != nil {
				panic(err)
			}
			id, err := eng.Commit(fmt.Sprintf("batch %d", i))
			if err != nil {
				panic(err)
			}
			ids = append(ids, id)
		}
		commitSecs := time.Since(start).Seconds()

		// Time-travel sweep: certain answers at random historical commits.
		rng := rand.New(rand.NewSource(99))
		start = time.Now()
		for i := 0; i < asofQueries; i++ {
			snap, err := eng.AsOf(ids[rng.Intn(len(ids))])
			if err != nil {
				panic(err)
			}
			mustRel(snap.Eval(unpaid, certOpts))
		}
		asofSecs := time.Since(start).Seconds()

		// Agree: sampled historical answers vs a from-scratch replay.
		agree := true
		for _, i := range []int{0, commits / 2, commits - 1} {
			replay, _ := workload.Orders(workload.OrdersConfig{Orders: 500, PaidFraction: 0.7, NullRate: 0.1, Seed: 42})
			for _, u := range stream[:(i+1)*batch] {
				if u.add {
					replay.MustAdd(u.rel, u.t)
				} else {
					replay.Relation(u.rel).Remove(u.t)
				}
			}
			snap, err := eng.AsOf(ids[i])
			if err != nil {
				panic(err)
			}
			if !snap.Database().Equal(replay) {
				agree = false
				continue
			}
			got := mustRel(snap.Eval(unpaid, certOpts))
			want := mustRel(h.engine(replay).Eval(unpaid, certOpts))
			if !got.Equal(want) {
				agree = false
			}
		}

		// Branch / checkout / merge cycle: divergent edits on both sides.
		if err := eng.Branch("side"); err != nil {
			panic(err)
		}
		commitOne := func(rel string, t table.Tuple, msg string) {
			if err := eng.Update(func(db *table.Database) error { return db.Add(rel, t) }); err != nil {
				panic(err)
			}
			if _, err := eng.Commit(msg); err != nil {
				panic(err)
			}
		}
		start = time.Now()
		commitOne("Order", table.NewTuple(value.String("main-oid"), value.String("pr-main")), "main edit")
		if err := eng.Checkout("side"); err != nil {
			panic(err)
		}
		commitOne("Order", table.NewTuple(value.String("side-oid"), value.String("pr-side")), "side edit")
		if err := eng.Checkout("main"); err != nil {
			panic(err)
		}
		mres, err := eng.Merge("side", "merge side")
		if err != nil {
			panic(err)
		}
		mergeDur := time.Since(start)
		merged := mres.State.Relation("Order")
		if !merged.Contains(table.NewTuple(value.String("main-oid"), value.String("pr-main"))) ||
			!merged.Contains(table.NewTuple(value.String("side-oid"), value.String("pr-side"))) {
			agree = false
		}

		res.Rows = append(res.Rows, []string{
			itoa(k), itoa(commits),
			fmt.Sprintf("%.0f", float64(commits)/commitSecs),
			itoa(asofQueries),
			fmt.Sprintf("%.0f", float64(asofQueries)/asofSecs),
			dtoa(mergeDur), itoa(len(mres.Conflicts)), fmt.Sprintf("%v", agree),
		})
	}
	return res
}

// E16ParallelScaling measures the engine's intra-query worker knob
// (engine.Options.Workers): the E1-style unpaid-orders difference and the
// E5-style join-project UCQ evaluated morsel-parallel at growing worker
// counts, plus an E13-style batch sweep for comparison with inter-query
// parallelism.  Every row's answer is checked bit-identical against the
// workers=1 sweep (the serial differential oracle), so the speedup column
// is the only thing that may vary between hosts: it is bounded by
// GOMAXPROCS, and on a single-CPU host every sweep hovers around 1x — the
// notes record the bound so archived JSON runs stay interpretable.
func (h Harness) E16ParallelScaling(rows int, workerCounts []int) Result {
	res := Result{
		ID:     "E16",
		Title:  "Intra-query parallel scaling: morsel-driven evaluation vs worker count",
		Header: []string{"workload", "workers", "seconds", "speedup", "agree"},
		Notes: fmt.Sprintf("Workers is the intra-query budget (engine.Options.Workers); agree pins every sweep\n"+
			"bit-identical to workers=1.  Speedup is bounded by GOMAXPROCS=%d (NumCPU=%d): the\n"+
			"headline scaling needs a multi-core host, on one CPU every row is ~1x by design.",
			runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}
	if len(workerCounts) == 0 || workerCounts[0] != 1 {
		workerCounts = append([]int{1}, workerCounts...)
	}

	ordersDB, _ := workload.Orders(workload.OrdersConfig{Orders: rows, PaidFraction: 0.7, NullRate: 0.1, Seed: 16})
	unpaidRA := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	joinDB := workload.Random(workload.RandomConfig{
		Relations:         map[string]int{"R": 2, "S": 2},
		TuplesPerRelation: rows,
		DomainSize:        rows/8 + 4,
		Nulls:             3,
		NullRate:          0.02,
		Seed:              16,
	})
	ucq := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}

	type sweep struct {
		name string
		run  func(workers int) (string, error) // returns an answer fingerprint
	}
	ordersEng := h.engine(ordersDB)
	joinEng := h.engine(joinDB)
	batchReqs := make([]engine.Request, 64)
	for i := range batchReqs {
		batchReqs[i] = engine.Request{Query: unpaidRA, Opts: h.opts(engine.ModeCertain)}
	}
	batchSnap := ordersEng.Snapshot()
	sweeps := []sweep{
		{"diff-certain", func(workers int) (string, error) {
			opts := h.opts(engine.ModeCertain)
			opts.Workers = workers
			rel, err := ordersEng.Eval(unpaidRA, opts)
			if err != nil {
				return "", err
			}
			return rel.CanonicalKey(), nil
		}},
		{"join-certain", func(workers int) (string, error) {
			opts := h.opts(engine.ModeCertain)
			opts.Workers = workers
			rel, err := joinEng.Eval(ucq, opts)
			if err != nil {
				return "", err
			}
			return rel.CanonicalKey(), nil
		}},
		{"batch-serve", func(workers int) (string, error) {
			var b strings.Builder
			for _, resp := range batchSnap.Serve(batchReqs, workers) {
				if resp.Err != nil {
					return "", resp.Err
				}
				b.WriteString(resp.Rel.CanonicalKey())
				b.WriteByte('\n')
			}
			return b.String(), nil
		}},
	}

	for _, sw := range sweeps {
		// Warm the plan caches and derived indexes so the workers=1 baseline
		// is not charged for one-time compilation.
		if _, err := sw.run(1); err != nil {
			res.Rows = append(res.Rows, []string{sw.name, "-", "-", "-", "error"})
			continue
		}
		var baseFP string
		var baseSecs float64
		for _, workers := range workerCounts {
			// Best of three runs: the individual sweeps are fast enough that a
			// single shot is dominated by scheduler and GC noise.
			var fp string
			var err error
			elapsed := 0.0
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				fp, err = sw.run(workers)
				if err != nil {
					break
				}
				if secs := time.Since(start).Seconds(); rep == 0 || secs < elapsed {
					elapsed = secs
				}
			}
			if err != nil {
				res.Rows = append(res.Rows, []string{sw.name, itoa(workers), "-", "-", "error"})
				continue
			}
			agree := true
			speedup := "-"
			if workers == 1 {
				baseFP, baseSecs = fp, elapsed
			} else {
				agree = fp == baseFP
				if elapsed > 0 && baseSecs > 0 {
					speedup = fmt.Sprintf("%.2fx", baseSecs/elapsed)
				}
			}
			res.Rows = append(res.Rows, []string{
				sw.name, itoa(workers), fmt.Sprintf("%.4f", elapsed), speedup, fmt.Sprintf("%v", agree),
			})
		}
	}
	return res
}

// E17CodedStrings measures the dictionary-coded execution tier on the
// string-heavy catalog workload (workload.Catalog): a projected
// item/tag join and a category difference, each evaluated with the coded
// tier off (the row oracle) and on, across worker counts.  Codes
// turn string equality into u64 equality — the hash-join build and probe
// hash raw codes instead of encoding binary string keys, and the final
// gather deduplicates on code tuples before any value is decoded — so
// the on/off ratio is the headline number.  Every coded answer is pinned
// bit-identical to its uncoded twin (agree column).
func (h Harness) E17CodedStrings(items int, workerCounts []int) Result {
	res := Result{
		ID:     "E17",
		Title:  "Coded columns: dictionary-coded kernels vs the row oracle on string-heavy joins",
		Header: []string{"workload", "workers", "coded-off", "coded-on", "ratio", "agree"},
		Notes: "coded-off/coded-on are best-of-three seconds for the same query with\n" +
			"engine.Options.Coded off and on (everything else identical); ratio is off/on, so\n" +
			"> 1x means the coded tier wins.  agree pins coded vs row oracle: the two answers\n" +
			"must be bit-identical.",
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1}
	}

	db := workload.Catalog(workload.CatalogConfig{
		Items:      items,
		Categories: 24,
		Tags:       40,
		Nulls:      3,
		NullRate:   0.02,
		Seed:       17,
	})
	eng := h.engine(db)

	// Projected join: which (category, tag) combinations exist — the
	// dedup-heavy set-semantics shape.
	catTags := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("Item"), As: "I", Attrs: []string{"sku", "category"}},
			Right: ra.Rename{Input: ra.Base("Tagged"), As: "T", Attrs: []string{"sku", "tag"}},
		},
		Attrs: []string{"category", "tag"},
	}
	// Difference: SKUs that are items but never tagged.
	untagged := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Item"), Attrs: []string{"sku"}}, As: "A", Attrs: []string{"sku"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Tagged"), Attrs: []string{"sku"}}, As: "B", Attrs: []string{"sku"}},
	}

	run := func(q ra.Expr, workers int, coded engine.CodedSetting) (string, float64, error) {
		opts := h.opts(engine.ModeCertain)
		opts.Workers = workers
		opts.Coded = coded
		var fp string
		elapsed := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			rel, err := eng.Eval(q, opts)
			if err != nil {
				return "", 0, err
			}
			if secs := time.Since(start).Seconds(); rep == 0 || secs < elapsed {
				elapsed = secs
			}
			fp = rel.CanonicalKey()
		}
		return fp, elapsed, nil
	}

	for _, w := range []struct {
		name string
		q    ra.Expr
	}{{"cat-tag-join", catTags}, {"untagged-diff", untagged}} {
		// Warm plan caches, partitionings and encodings so neither setting
		// is charged for one-time builds.
		if _, _, err := run(w.q, 1, engine.CodedOff); err != nil {
			res.Rows = append(res.Rows, []string{w.name, "-", "-", "-", "-", "error"})
			continue
		}
		if _, _, err := run(w.q, 1, engine.CodedOn); err != nil {
			res.Rows = append(res.Rows, []string{w.name, "-", "-", "-", "-", "error"})
			continue
		}
		for _, workers := range workerCounts {
			offFP, offSecs, err := run(w.q, workers, engine.CodedOff)
			if err != nil {
				res.Rows = append(res.Rows, []string{w.name, itoa(workers), "-", "-", "-", "error"})
				continue
			}
			onFP, onSecs, err := run(w.q, workers, engine.CodedOn)
			if err != nil {
				res.Rows = append(res.Rows, []string{w.name, itoa(workers), "-", "-", "-", "error"})
				continue
			}
			ratio := "-"
			if onSecs > 0 {
				ratio = fmt.Sprintf("%.2fx", offSecs/onSecs)
			}
			res.Rows = append(res.Rows, []string{
				w.name, itoa(workers),
				fmt.Sprintf("%.4f", offSecs), fmt.Sprintf("%.4f", onSecs),
				ratio, fmt.Sprintf("%v", onFP == offFP),
			})
		}
	}
	return res
}
