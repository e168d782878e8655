package table

// Hash indexes over relation columns.  An Index groups the tuples of a
// relation by the binary key of a fixed list of column positions, in the
// chained-slice layout the evaluator's hash join uses: one map entry per
// distinct key and an int32-linked chain of tuples per entry, so probes
// convert no strings and allocate nothing.
//
// Indexes are built lazily by Relation.Index and cached on the relation;
// any mutation of the relation invalidates its cached indexes.  Because
// relations are treated as immutable while they are being evaluated
// (see the package contract on Relation), a cached index stays valid for
// as long as query plans keep probing the same relation — this is what
// lets world enumeration build each join's invariant build side once and
// probe it once per world.

// Index is an immutable hash index of a relation over a fixed list of
// column positions.
type Index struct {
	positions []int
	heads     map[string]int32 // projected key → 1-based head into entries
	entries   []indexEntry
}

type indexEntry struct {
	t    Tuple
	next int32 // 1-based index into entries; 0 terminates the chain
}

// Positions returns the column positions the index is keyed on.
func (ix *Index) Positions() []int { return ix.positions }

// Len returns the number of indexed tuples.
func (ix *Index) Len() int { return len(ix.entries) }

// Lookup returns the head of the chain of tuples whose projection on the
// indexed positions has the given binary key, or 0 if there is none.  The
// []byte key is never retained, so callers can reuse a scratch buffer.
func (ix *Index) Lookup(key []byte) int32 { return ix.heads[string(key)] }

// At returns the tuple stored at chain slot i (1-based, as returned by
// Lookup) and the next slot of the chain (0 terminates).  The returned
// tuple must not be mutated.
func (ix *Index) At(i int32) (Tuple, int32) {
	e := ix.entries[i-1]
	return e.t, e.next
}

// AppendTupleKey appends the key of t restricted to the indexed positions
// to dst — the probe-side counterpart of the index's own key encoding.
func (ix *Index) AppendTupleKey(dst []byte, t Tuple) []byte {
	for _, p := range ix.positions {
		dst = t[p].AppendKey(dst)
	}
	return dst
}

// Index returns a hash index of the relation over the given column
// positions, building it on first use and caching it on the relation.
// Concurrent callers are safe; the cache is invalidated by any mutation
// of the relation.  The positions slice is copied.
func (r *Relation) Index(positions []int) *Index {
	for {
		set := r.indexes.Load()
		if set != nil {
			for _, ix := range *set {
				if samePositions(ix.positions, positions) {
					return ix
				}
			}
		}
		ix := r.buildIndex(positions)
		var cur []*Index
		if set != nil {
			cur = *set
		}
		next := make([]*Index, 0, len(cur)+1)
		next = append(next, cur...)
		next = append(next, ix)
		if r.indexes.CompareAndSwap(set, &next) {
			return ix
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

func (r *Relation) buildIndex(positions []int) *Index {
	r.ensure()
	ix := &Index{
		positions: append([]int(nil), positions...),
		heads:     make(map[string]int32, r.Len()),
		entries:   make([]indexEntry, 0, r.Len()),
	}
	var buf [keyBufSize]byte
	for _, t := range r.tuples {
		key := buf[:0]
		for _, p := range positions {
			key = t[p].AppendKey(key)
		}
		head := ix.heads[string(key)]
		ix.entries = append(ix.entries, indexEntry{t: t, next: head})
		ix.heads[string(key)] = int32(len(ix.entries))
	}
	return ix
}

// invalidateDerived drops all cached derived structures (hash indexes,
// partitionings and the coded sidecar); every mutation path calls it.
func (r *Relation) invalidateDerived() {
	if r.indexes.Load() != nil {
		r.indexes.Store(nil)
	}
	r.invalidatePartitionings()
	r.invalidateEncoding()
}

func samePositions(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
