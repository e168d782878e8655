package main

// Input generators.  Every input the benchmark measures is built here from
// the run's seed, not by the repository's own generators, so a later
// change to those cannot change what the benchmark measures.

import (
	"fmt"
	"math/rand"

	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// rows is a generated relation instance: the rows each loader adds.
type rows struct {
	rel    schema.Relation
	tuples []table.Tuple
}

// nullPicker hands out marked nulls from a fixed pool of distinct ids.
type nullPicker struct {
	rng  *rand.Rand
	next uint64
	pool []value.Value
}

func newNullPicker(rng *rand.Rand, first uint64, n int) *nullPicker {
	p := &nullPicker{rng: rng, next: first}
	for i := 0; i < n; i++ {
		p.pool = append(p.pool, value.Null(p.next))
		p.next++
	}
	return p
}

func (p *nullPicker) pick() value.Value { return p.pool[p.rng.Intn(len(p.pool))] }

// genJoin is the E16 shape: R(a,b) and S(b,c) over ints, n tuples each,
// with 3 distinct nulls at a 2% rate.
func genJoin(rng *rand.Rand, n int) []rows {
	nulls := newNullPicker(rng, 1, 3)
	dom := n/8 + 4
	pick := func() value.Value {
		if rng.Float64() < 0.02 {
			return nulls.pick()
		}
		return value.Int(int64(1 + rng.Intn(dom)))
	}
	mk := func(name string, attrs ...string) rows {
		r := rows{rel: schema.NewRelation(name, attrs...)}
		for i := 0; i < n; i++ {
			r.tuples = append(r.tuples, table.NewTuple(pick(), pick()))
		}
		return r
	}
	return []rows{mk("R", "a", "b"), mk("S", "b", "c")}
}

// genCatalog is the E17 shape: string-heavy Item(sku, category) with n
// items and Tagged(sku, tag) with 2n tags, 3 nulls at a 2% rate.
func genCatalog(rng *rand.Rand, n int) []rows {
	nulls := newNullPicker(rng, 1, 3)
	label := func(kind string, k int) value.Value {
		if rng.Float64() < 0.02 {
			return nulls.pick()
		}
		return value.String(fmt.Sprintf("%s-%d", kind, rng.Intn(k)))
	}
	item := rows{rel: schema.NewRelation("Item", "sku", "category")}
	for i := 0; i < n; i++ {
		item.tuples = append(item.tuples, table.NewTuple(value.String(fmt.Sprintf("sku-%06d", i)), label("cat", 24)))
	}
	tagged := rows{rel: schema.NewRelation("Tagged", "sku", "tag")}
	for i := 0; i < 2*n; i++ {
		tagged.tuples = append(tagged.tuples, table.NewTuple(value.String(fmt.Sprintf("sku-%06d", rng.Intn(n))), label("tag", 40)))
	}
	return []rows{item, tagged}
}

// genOrders is the introduction's orders/payments scenario: n orders, 70%
// of them paid, 10% of payments referring to a marked null instead of
// their order.  Payment amounts are ints.
func genOrders(rng *rand.Rand, n int) []rows {
	order := rows{rel: schema.NewRelation("Order", "o_id", "product")}
	pay := rows{rel: schema.NewRelation("Pay", "p_id", "order", "amount")}
	nextNull := uint64(1)
	for i := 0; i < n; i++ {
		oid := value.String(fmt.Sprintf("oid%d", i))
		order.tuples = append(order.tuples, table.NewTuple(oid, value.String(fmt.Sprintf("pr%d", rng.Intn(n/2+1)))))
		if rng.Float64() < 0.7 {
			ref := oid
			if rng.Float64() < 0.1 {
				ref = value.Null(nextNull)
				nextNull++
			}
			pay.tuples = append(pay.tuples, table.NewTuple(value.String(fmt.Sprintf("pid%d", i)), ref, value.Int(int64(10+rng.Intn(990)))))
		}
	}
	return []rows{order, pay}
}

// genWorlds is the world-enumeration shape: W(a,b,c) with n tuples and
// V(c,d) with n/10 tuples over the constants 1..consts, with exactly two
// distinct nulls, carried by eight tuples of W.  Under CWA that is
// (consts+2)² worlds (the constant 0 and one fresh constant join the
// domain), each differing from the others only in the null-carrying
// tuples.  Those eight are fixed, not drawn from the seed, so the
// per-world work is the same for every seed.  The first, (1, ⊥1, 0),
// projects to (1, 0) in every world and no null-free tuple has c = 0, so
// that tuple is in every world's delta: the running intersection of the
// deltas never empties and certain-cwa enumerates every world.
func genWorlds(rng *rand.Rand, n, consts int) []rows {
	c := func() value.Value { return value.Int(int64(1 + rng.Intn(consts))) }
	w := rows{rel: schema.NewRelation("W", "a", "b", "c")}
	w.tuples = append(w.tuples, table.NewTuple(value.Int(1), value.Null(1), value.Int(0)))
	for i := 1; i < 8; i++ {
		t := table.NewTuple(value.Int(int64(1+i)), value.Int(int64(1+2*i)), value.Int(int64(1+3*i)))
		t[1+i%2] = value.Null(uint64(1 + i%2))
		w.tuples = append(w.tuples, t)
	}
	for len(w.tuples) < n {
		w.tuples = append(w.tuples, table.NewTuple(c(), c(), c()))
	}
	v := rows{rel: schema.NewRelation("V", "c", "d")}
	for i := 0; i < n/10; i++ {
		v.tuples = append(v.tuples, table.NewTuple(c(), c()))
	}
	return []rows{w, v}
}

// newDatabase creates an empty database with the given relations' schema.
func newDatabase(rs []rows) *table.Database {
	rels := make([]schema.Relation, len(rs))
	for i, r := range rs {
		rels[i] = r.rel
	}
	return table.NewDatabase(schema.MustNew(rels...))
}

// load adds every generated row through Database.Add.
func load(db *table.Database, rs []rows) error {
	for _, r := range rs {
		for _, t := range r.tuples {
			if err := db.Add(r.rel.Name, t); err != nil {
				return fmt.Errorf("load %s: %w", r.rel.Name, err)
			}
		}
	}
	return nil
}

// inputSizes records tuples, nulls, constants and bytes per relation.
func inputSizes(db *table.Database) map[string]any {
	out := map[string]any{}
	for _, name := range db.RelationNames() {
		r := db.Relation(name)
		var bytes int
		r.Each(func(t table.Tuple) bool {
			for _, v := range t {
				bytes += len(v.String()) + 1
			}
			return true
		})
		out[name] = map[string]int{
			"tuples":    r.Len(),
			"nulls":     len(r.Nulls()),
			"constants": len(r.Consts()),
			"bytes":     bytes,
		}
	}
	return out
}
