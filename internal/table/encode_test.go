package table

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"incdata/internal/value"
)

func TestDictEncodeDecodeRoundTrip(t *testing.T) {
	d := NewDict()
	vals := []value.Value{
		value.Int(0), value.Int(-1), value.Int(1 << 40),
		value.String("a"), value.String("b"), value.String(""),
		value.Null(1), value.Null(77),
	}
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		c, ok := d.Encode(v)
		if !ok {
			t.Fatalf("Encode(%v) not ok", v)
		}
		codes[i] = c
		if got := d.Decode(c); got != v {
			t.Fatalf("Decode(Encode(%v)) = %v", v, got)
		}
	}
	// Code equality must coincide with value equality.
	for i, a := range vals {
		for j, b := range vals {
			if (codes[i] == codes[j]) != (a == b) {
				t.Fatalf("code equality disagrees with value equality: %v vs %v", a, b)
			}
		}
	}
	// Nulls are tagged, never interned.
	for i, v := range vals {
		if value.CodeIsNull(codes[i]) != v.IsNull() {
			t.Fatalf("CodeIsNull(%v) wrong for %v", codes[i], v)
		}
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3 interned strings", d.Len())
	}
	// Re-encoding is stable.
	if c, _ := d.Encode(value.String("a")); c != codes[3] {
		t.Fatal("re-encoding changed the code")
	}
	// The only unencodable values: nulls with id ≥ 2^62.
	if _, ok := d.Encode(value.Null(uint64(1) << 62)); ok {
		t.Fatal("huge null id must not encode")
	}
}

func TestEncodingBuildAndInvalidate(t *testing.T) {
	d := NewDict()
	r := rel2(t, "R", []string{"1", "x"}, []string{"2", "y"}, []string{"⊥1", "x"})
	e := r.Encoding(d)
	if !e.Ok() || e.Rows() != 3 {
		t.Fatalf("Ok=%v Rows=%d", e.Ok(), e.Rows())
	}
	if e.ColConst(0) {
		t.Error("column 0 holds a null; ColConst must be false")
	}
	if !e.ColConst(1) {
		t.Error("column 1 is null-free; ColConst must be true")
	}
	// Decoding the vectors reproduces the relation's tuples.
	seen := map[string]bool{}
	for i := 0; i < e.Rows(); i++ {
		seen[fmt.Sprintf("%v|%v", d.Decode(e.Col(0)[i]), d.Decode(e.Col(1)[i]))] = true
	}
	if len(seen) != 3 {
		t.Fatalf("decoded rows = %v", seen)
	}
	// Cached until mutation.
	if r.Encoding(d) != e {
		t.Fatal("second Encoding call must return the cached sidecar")
	}
	r.MustAdd(MustParseTuple("3", "z"))
	e2 := r.Encoding(d)
	if e2 == e {
		t.Fatal("mutation must invalidate the cached encoding")
	}
	if e2.Rows() != 4 {
		t.Fatalf("rebuilt Rows = %d, want 4", e2.Rows())
	}
	// A different dictionary also misses the cache.
	if r.Encoding(NewDict()) == e2 {
		t.Fatal("an encoding must be keyed by its dictionary")
	}
}

func TestEncodingUnencodableIsCachedNegative(t *testing.T) {
	d := NewDict()
	r := NewRelationArity("R", 1)
	r.MustAdd(NewTuple(value.Null(uint64(1) << 62)))
	e := r.Encoding(d)
	if e == nil || e.Ok() {
		t.Fatalf("encoding of an unencodable relation must be a non-nil negative, got %+v", e)
	}
	if r.Encoding(d) != e {
		t.Fatal("the negative must be cached too")
	}
	if e.Index([]int{0}) != nil {
		t.Fatal("Index on a failed encoding must be nil")
	}
}

func TestCodedIndexLookup(t *testing.T) {
	d := NewDict()
	r := rel2(t, "R",
		[]string{"1", "x"}, []string{"1", "y"}, []string{"2", "x"}, []string{"⊥1", "x"})
	e := r.Encoding(d)
	ix := e.Index([]int{0})
	if ix == nil || ix.Len() != 4 {
		t.Fatalf("index: %+v", ix)
	}
	if ix.AllComplete() {
		t.Error("index over a relation with a null must not be AllComplete")
	}
	if got := e.Index([]int{0}); got != ix {
		t.Error("same positions must return the cached index")
	}
	probe := func(v value.Value) int {
		c, ok := d.Encode(v)
		if !ok {
			t.Fatalf("encode %v", v)
		}
		key := []uint64{c}
		h := value.HashCode(value.CodeHashSeed, c)
		n := 0
		for s := ix.Lookup(h); s != 0; {
			var row int32
			row, s = ix.At(s)
			if ix.MatchesKey(row, key) {
				n++
			}
		}
		if ix.HasKey(h, key) != (n > 0) {
			t.Fatalf("HasKey disagrees with chain walk for %v", v)
		}
		return n
	}
	if got := probe(value.Int(1)); got != 2 {
		t.Errorf("key 1 matched %d rows, want 2", got)
	}
	if got := probe(value.Int(2)); got != 1 {
		t.Errorf("key 2 matched %d rows, want 1", got)
	}
	if got := probe(value.Null(1)); got != 1 {
		t.Errorf("key ⊥1 matched %d rows, want 1", got)
	}
	if got := probe(value.Int(9)); got != 0 {
		t.Errorf("absent key matched %d rows, want 0", got)
	}
}

// TestEncodingChurnGuard pins the churn heuristic: a relation whose
// sidecar keeps getting invalidated before any reuse is eventually
// declined (Encoding returns nil, the plan layer falls back to the row
// path), and a relation that goes quiet earns its way back to
// full cache hits through the periodic probe rebuild.
func TestEncodingChurnGuard(t *testing.T) {
	d := NewDict()
	r := NewRelationArity("R", 1)
	r.MustAdd(NewTuple(value.Int(1)))
	declined := false
	for i := 0; i < 64; i++ {
		if r.Encoding(d) == nil {
			declined = true
			break
		}
		r.MustAdd(NewTuple(value.Int(int64(10 + i))))
	}
	if !declined {
		t.Fatal("a build-invalidate loop with no reuse must eventually be declined")
	}
	// Quiet relation: the probe rebuilds within encProbeInterval requests.
	var e *Encoding
	for i := 0; e == nil && i <= encProbeInterval; i++ {
		e = r.Encoding(d)
	}
	if e == nil || !e.Ok() {
		t.Fatal("the probe must rebuild once the relation goes quiet")
	}
	// Sustained reuse decays the churn score back to zero.
	for i := 0; i < encChurnCap; i++ {
		if got := r.Encoding(d); got != e {
			t.Fatalf("request %d after recovery missed the cached sidecar", i)
		}
	}
	if c := r.encStats.churn.Load(); c != 0 {
		t.Fatalf("churn = %d after sustained reuse, want 0", c)
	}
}

// TestEncodingConcurrentBuildVsWriter races concurrent Encoding builders
// (CAS publication) against a committing writer that keeps mutating the
// relation and thereby invalidating the sidecar.  Run under -race in CI.
// The writer owns the live relation (Relation is single-writer) and,
// after each add, publishes a copy-on-write snapshot through an atomic
// pointer — the engine's snapshot pattern; readers encode whichever
// snapshot is current, so several builders race on the same snapshot
// while the writer's next add lands on the live header.  Every encoding
// a reader observes must be internally consistent: its row count matches
// its vectors and the snapshot it describes — a reader may see a stale
// snapshot, but never a torn encoding.
func TestEncodingConcurrentBuildVsWriter(t *testing.T) {
	dict := NewDict()
	r := NewRelationArity("R", 2)
	for i := 0; i < 64; i++ {
		r.MustAdd(NewTuple(value.Int(int64(i%8)), value.String(fmt.Sprintf("s%d", i%5))))
	}
	var snap atomic.Pointer[Relation]
	snap.Store(r.Clone())

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := snap.Load()
				e := s.Encoding(dict)
				if e == nil {
					// The churn guard declined: the writer is invalidating
					// faster than readers reuse the sidecar.  Legal; retry.
					continue
				}
				if !e.Ok() {
					t.Error("all values are encodable; Ok must hold")
					return
				}
				rows := e.Rows()
				if rows != s.Len() {
					t.Errorf("encoding has %d rows for a snapshot of %d", rows, s.Len())
					return
				}
				for j := 0; j < 2; j++ {
					if len(e.Col(j)) != rows {
						t.Errorf("col %d has %d codes for %d rows", j, len(e.Col(j)), rows)
						return
					}
				}
				// Decode a random cell; the dictionary must already hold
				// every code the published encoding mentions.
				if rows > 0 {
					i := rnd.Intn(rows)
					_ = dict.Decode(e.Col(0)[i])
					_ = dict.Decode(e.Col(1)[i])
				}
				// Coded indexes CAS-publish on the encoding concurrently.
				if ix := e.Index([]int{0}); ix.Len() != rows {
					t.Errorf("index has %d entries for %d rows", ix.Len(), rows)
					return
				}
			}
		}(g)
	}

	// The committing writer: each add bumps the stamp and invalidates,
	// then publishes the new state as a snapshot.
	for i := 0; i < 200; i++ {
		r.MustAdd(NewTuple(value.Int(int64(100+i)), value.String(fmt.Sprintf("w%d", i%7))))
		snap.Store(r.Clone())
	}
	close(stop)
	wg.Wait()

	// After the writer quiesces, a fresh encoding describes the final
	// relation exactly.  The churn guard may decline the first few
	// requests (the writer just hammered the relation); keep asking —
	// the probe must rebuild within encProbeInterval requests.
	var e *Encoding
	for i := 0; e == nil && i <= encProbeInterval; i++ {
		e = r.Encoding(dict)
	}
	if !e.Ok() || e.Rows() != r.Len() {
		t.Fatalf("final encoding: Ok=%v Rows=%d Len=%d", e.Ok(), e.Rows(), r.Len())
	}
	if e.stamp != r.Stamp() {
		t.Fatalf("final encoding stamp %v != relation stamp %v", e.stamp, r.Stamp())
	}
}
