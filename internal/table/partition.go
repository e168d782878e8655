package table

// Hash partitioning of relations.  A Partitioning splits the tuples of a
// relation into a fixed number of disjoint buckets — by the FNV-1a hash of
// the binary key of a list of column positions (the join-key case), or
// round-robin when no positions are given (plain scan morsels).  Matching
// join keys always hash to the same bucket, so a hash join whose build and
// probe sides are partitioned on their respective key columns decomposes
// into per-partition joins with no cross-partition probes: bucket i of the
// probe side only ever matches bucket i of the build side.
//
// Partitionings are built lazily by Relation.Partition and cached on the
// relation exactly like hash indexes: any mutation invalidates them, and
// because relations are immutable while being evaluated (stamp-validated
// plan caches retain stable relations unchanged), a cached partitioning —
// including its lazily built per-partition indexes — survives for as long
// as plans keep evaluating over the same storage.

import (
	"sync/atomic"
)

// Partitioning is an immutable split of a relation's tuples into disjoint
// buckets, with a lazily built hash index per bucket.
type Partitioning struct {
	positions []int // nil: round-robin morsel split, no key semantics
	parts     int
	buckets   [][]Tuple
	indexes   []atomic.Pointer[Index]       // per-bucket, built on first use
	coded     []atomic.Pointer[codedBucket] // per-bucket coded indexes (see encode.go)
}

// Parts returns the number of buckets.
func (p *Partitioning) Parts() int { return p.parts }

// Positions returns the column positions the partitioning hashes on; nil
// for a round-robin morsel split.
func (p *Partitioning) Positions() []int { return p.positions }

// Bucket returns the tuples of bucket i.  The slice and its tuples are
// shared with the partitioning and must not be mutated.
func (p *Partitioning) Bucket(i int) []Tuple { return p.buckets[i] }

// Index returns the hash index of bucket i over the partitioning's
// positions, building it on first use.  Concurrent callers are safe.  It
// panics on a round-robin partitioning, which has no key columns.
func (p *Partitioning) Index(i int) *Index {
	if p.positions == nil {
		panic("table: Index on a round-robin partitioning")
	}
	if ix := p.indexes[i].Load(); ix != nil {
		return ix
	}
	ix := newIndexFromTuples(p.positions, p.buckets[i])
	if p.indexes[i].CompareAndSwap(nil, ix) {
		return ix
	}
	return p.indexes[i].Load()
}

// PartitionOfKey returns the bucket a tuple with the given binary key (as
// built by appending the partition positions' value keys) lands in.
func (p *Partitioning) PartitionOfKey(key []byte) int {
	return int(hashKey(key) % uint64(p.parts))
}

// hashKey is FNV-1a over the key bytes.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Partition returns a partitioning of the relation into parts buckets over
// the given column positions (nil positions split round-robin), building it
// on first use and caching it on the relation.  Concurrent callers are
// safe; the cache is invalidated by any mutation of the relation, exactly
// like Index's.  The positions slice is copied.
func (r *Relation) Partition(positions []int, parts int) *Partitioning {
	if parts < 1 {
		parts = 1
	}
	for {
		set := r.partitions.Load()
		if set != nil {
			for _, p := range *set {
				if p.parts == parts && samePositions(p.positions, positions) {
					return p
				}
			}
		}
		p := r.buildPartitioning(positions, parts)
		var cur []*Partitioning
		if set != nil {
			cur = *set
		}
		next := make([]*Partitioning, 0, len(cur)+1)
		next = append(next, cur...)
		next = append(next, p)
		if r.partitions.CompareAndSwap(set, &next) {
			return p
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

func (r *Relation) buildPartitioning(positions []int, parts int) *Partitioning {
	p := &Partitioning{
		parts:   parts,
		buckets: make([][]Tuple, parts),
		indexes: make([]atomic.Pointer[Index], parts),
		coded:   make([]atomic.Pointer[codedBucket], parts),
	}
	if positions != nil {
		p.positions = append([]int(nil), positions...)
	}
	if r == nil {
		return p
	}
	sizeHint := r.Len()/parts + 1
	if positions == nil {
		// Round-robin morsels: assignment is arbitrary (consumers always
		// merge every bucket under set semantics), so spread evenly.
		i := 0
		for _, t := range r.tuples {
			if p.buckets[i] == nil {
				p.buckets[i] = make([]Tuple, 0, sizeHint)
			}
			p.buckets[i] = append(p.buckets[i], t)
			i++
			if i == parts {
				i = 0
			}
		}
		return p
	}
	var buf [keyBufSize]byte
	for _, t := range r.tuples {
		key := buf[:0]
		for _, pos := range positions {
			key = t[pos].AppendKey(key)
		}
		i := p.PartitionOfKey(key)
		if p.buckets[i] == nil {
			p.buckets[i] = make([]Tuple, 0, sizeHint)
		}
		p.buckets[i] = append(p.buckets[i], t)
	}
	return p
}

// newIndexFromTuples builds a hash index over a tuple slice, in the same
// chained-slice layout Relation.buildIndex produces.
func newIndexFromTuples(positions []int, ts []Tuple) *Index {
	ix := &Index{
		positions: append([]int(nil), positions...),
		heads:     make(map[string]int32, len(ts)),
		entries:   make([]indexEntry, 0, len(ts)),
	}
	var buf [keyBufSize]byte
	for _, t := range ts {
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

// invalidatePartitionings drops cached partitionings; every mutation path
// calls it (via invalidateDerived).
func (r *Relation) invalidatePartitionings() {
	if r.partitions.Load() != nil {
		r.partitions.Store(nil)
	}
}
