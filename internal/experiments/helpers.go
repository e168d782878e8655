package experiments

import (
	"time"

	"incdata/internal/cq"
	"incdata/internal/engine"
	"incdata/internal/exchange"
	"incdata/internal/schema"
	"incdata/internal/table"
)

// paperMapping is the schema mapping of the paper's introduction:
// Order(i,p) → ∃x Cust(x) ∧ Pref(x,p).
func paperMapping() exchange.Mapping {
	src := schema.MustNew(schema.NewRelation("Order", "o_id", "product"))
	tgt := schema.MustNew(
		schema.NewRelation("Cust", "cust"),
		schema.NewRelation("Pref", "cust", "product"),
	)
	return exchange.Mapping{
		Source: src,
		Target: tgt,
		Dependencies: []exchange.Dependency{{
			Name: "order-to-cust",
			Body: []cq.Atom{cq.NewAtom("Order", cq.V("i"), cq.V("p"))},
			Head: []cq.Atom{
				cq.NewAtom("Cust", cq.V("x")),
				cq.NewAtom("Pref", cq.V("x"), cq.V("p")),
			},
			Existential: []string{"x"},
		}},
	}
}

// projectOrders restricts an orders/payments database to its Order relation
// so that it matches the source schema of paperMapping.
func projectOrders(d *table.Database) *table.Database {
	src := schema.MustNew(schema.NewRelation("Order", "o_id", "product"))
	out := table.NewDatabase(src)
	d.Relation("Order").Each(func(t table.Tuple) bool {
		out.MustAdd("Order", t)
		return true
	})
	return out
}

// Config bundles the sweep parameters of all experiments so that the CLI
// and the benchmarks can choose between a quick and a full run.
type Config struct {
	// Planner selects the engine evaluation path for every query the
	// experiments run (the incbench -planner flag).
	Planner engine.PlannerSetting

	// Workers is the intra-query worker budget every evaluation runs under
	// (the incbench -workers flag); 0 resolves to GOMAXPROCS.
	Workers int

	// Coded selects the dictionary-coded execution tier or the row oracle
	// for every planned evaluation (the incbench -coded flag).
	Coded engine.CodedSetting

	E1Sizes        []int
	E1NullRates    []float64
	E2Sizes        []int
	E4Sizes        []int
	E5Trials       int
	E5NullCounts   []int
	E6DBSizes      []int
	E6NullCounts   []int
	E7AtomCounts   []int
	E7Trials       int
	E9Students     []int
	E9NullRates    []float64
	E10Orders      []int
	E11Instances   int
	E12Sizes       []int
	E12Pairs       int
	E13Queries     int
	E13Workers     []int
	E14Orders      []int
	E14Updates     int
	E15Commits     int
	E15Batch       int
	E15Checkpoints []int
	E15AsOf        int
	E16Rows        int
	E16Workers     []int
	E17Items       int
	E17Workers     []int
	E18Orders      int
	E18Clients     []int
	E18Requests    int
	E19Commits     int
	E19Batch       int
	E19Checkpoints []int
	E19AsOf        int
	E19Budget      int64
}

// QuickConfig keeps every experiment under a few seconds; it is the default
// for cmd/incbench and for the Go benchmarks.
func QuickConfig() Config {
	return Config{
		E1Sizes:        []int{100, 500, 2000},
		E1NullRates:    []float64{0, 0.1, 0.3, 0.5},
		E2Sizes:        []int{10, 100, 1000, 5000},
		E4Sizes:        []int{2, 4, 8, 16},
		E5Trials:       20,
		E5NullCounts:   []int{1, 2, 3},
		E6DBSizes:      []int{20, 80},
		E6NullCounts:   []int{1, 2, 3, 4},
		E7AtomCounts:   []int{2, 4, 8},
		E7Trials:       10,
		E9Students:     []int{50, 200, 1000},
		E9NullRates:    []float64{0, 0.05},
		E10Orders:      []int{100, 1000, 10000},
		E11Instances:   40,
		E12Sizes:       []int{4, 8},
		E12Pairs:       10,
		E13Queries:     400,
		E13Workers:     []int{1, 2, 4},
		E14Orders:      []int{500, 2000},
		E14Updates:     300,
		E15Commits:     60,
		E15Batch:       4,
		E15Checkpoints: []int{1, 8, 32},
		E15AsOf:        150,
		E16Rows:        4000,
		E16Workers:     []int{1, 2, 4, 8},
		E17Items:       4000,
		E17Workers:     []int{1, 2, 4},
		E18Orders:      800,
		E18Clients:     []int{1, 2, 4},
		E18Requests:    300,
		E19Commits:     60,
		E19Batch:       4,
		E19Checkpoints: []int{1, 8, 32},
		E19AsOf:        100,
		E19Budget:      16 << 10,
	}
}

// FullConfig runs larger sweeps (minutes, not seconds); README.md
// records QuickConfig numbers so results are reproducible everywhere.
func FullConfig() Config {
	return Config{
		E1Sizes:        []int{100, 1000, 10000, 50000},
		E1NullRates:    []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
		E2Sizes:        []int{10, 100, 1000, 10000, 100000},
		E4Sizes:        []int{2, 4, 8, 16, 32},
		E5Trials:       100,
		E5NullCounts:   []int{1, 2, 3, 4},
		E6DBSizes:      []int{20, 80, 320},
		E6NullCounts:   []int{1, 2, 3, 4, 5, 6},
		E7AtomCounts:   []int{2, 4, 8, 12},
		E7Trials:       50,
		E9Students:     []int{50, 200, 1000, 5000},
		E9NullRates:    []float64{0, 0.05, 0.1},
		E10Orders:      []int{100, 1000, 10000, 100000},
		E11Instances:   200,
		E12Sizes:       []int{4, 8, 16},
		E12Pairs:       25,
		E13Queries:     2000,
		E13Workers:     []int{1, 2, 4, 8},
		E14Orders:      []int{2000, 10000, 50000},
		E14Updates:     1000,
		E15Commits:     400,
		E15Batch:       5,
		E15Checkpoints: []int{1, 16, 64},
		E15AsOf:        1000,
		E16Rows:        20000,
		E16Workers:     []int{1, 2, 4, 8},
		E17Items:       20000,
		E17Workers:     []int{1, 2, 4, 8},
		E18Orders:      4000,
		E18Clients:     []int{1, 2, 4, 8},
		E18Requests:    2000,
		E19Commits:     400,
		E19Batch:       5,
		E19Checkpoints: []int{1, 16, 64},
		E19AsOf:        500,
		E19Budget:      16 << 10,
	}
}

// All runs every experiment with the given configuration, in order, and
// stamps each result with its wall-clock duration.
func All(cfg Config) []Result { return Run(cfg, nil) }

// Run executes the selected experiments (nil or empty selects all) in
// order through a Harness with the config's evaluation settings, stamping
// each result with its wall-clock duration.
func Run(cfg Config, ids map[string]bool) []Result {
	h := Harness{Planner: cfg.Planner, Workers: cfg.Workers, Coded: cfg.Coded}
	runs := []struct {
		id  string
		run func() Result
	}{
		{"E1", func() Result { return h.E1UnpaidOrders(cfg.E1Sizes, cfg.E1NullRates) }},
		{"E2", func() Result { return h.E2Difference(cfg.E2Sizes) }},
		{"E3", func() Result { return h.E3Tautology() }},
		{"E4", func() Result { return h.E4CTables(cfg.E4Sizes) }},
		{"E5", func() Result { return h.E5NaiveUCQ(cfg.E5Trials, cfg.E5NullCounts) }},
		{"E6", func() Result { return h.E6Complexity(cfg.E6DBSizes, cfg.E6NullCounts) }},
		{"E7", func() Result { return h.E7Duality(cfg.E7AtomCounts, cfg.E7Trials) }},
		{"E8", func() Result { return h.E8CertainO() }},
		{"E9", func() Result { return h.E9Division(cfg.E9Students, cfg.E9NullRates) }},
		{"E10", func() Result { return h.E10Exchange(cfg.E10Orders) }},
		{"E11", func() Result { return h.E11Theorem(cfg.E11Instances) }},
		{"E12", func() Result { return h.E12Orderings(cfg.E12Sizes, cfg.E12Pairs) }},
		{"E13", func() Result { return h.E13EngineBatch(cfg.E13Queries, cfg.E13Workers) }},
		{"E14", func() Result { return h.E14IncrementalViews(cfg.E14Orders, cfg.E14Updates) }},
		{"E15", func() Result {
			return h.E15VersionHistory(cfg.E15Commits, cfg.E15Batch, cfg.E15Checkpoints, cfg.E15AsOf)
		}},
		{"E16", func() Result { return h.E16ParallelScaling(cfg.E16Rows, cfg.E16Workers) }},
		{"E17", func() Result { return h.E17CodedStrings(cfg.E17Items, cfg.E17Workers) }},
		{"E18", func() Result { return h.E18ServerThroughput(cfg.E18Orders, cfg.E18Clients, cfg.E18Requests) }},
		{"E19", func() Result {
			return h.E19DurableStore(cfg.E19Commits, cfg.E19Batch, cfg.E19Checkpoints, cfg.E19AsOf, cfg.E19Budget)
		}},
	}
	var out []Result
	for _, r := range runs {
		if len(ids) > 0 && !ids[r.id] {
			continue
		}
		start := time.Now()
		res := r.run()
		res.Seconds = time.Since(start).Seconds()
		out = append(out, res)
	}
	return out
}
