package table

// Coded execution support: the per-database value dictionary (Dict), the
// per-relation coded-column sidecar (Encoding) and hash indexes over raw
// codes (CodedIndex).
//
// An Encoding interns every column of a relation into a dense []uint64
// code vector against the database's dictionary: in-range integers and
// null ids embed arithmetically in the code space (see value.EncodeDirect)
// and everything else — strings, astronomically out-of-range integers —
// gets a dictionary slot.  Because the dictionary interns each distinct
// value exactly once, code equality coincides with value equality across
// every relation encoded against the same dictionary, which is all that
// certain-answer evaluation ever asks of constants.  The coded kernels
// of internal/plan run entirely over these codes and decode back to
// value.Value only at materialization.
//
// Encodings are built lazily by Relation.Encoding and CAS-published on
// the relation with the same lifecycle as Partitioning: any mutation
// invalidates the cached sidecar (invalidateDerived), and the recorded
// content stamp double-checks that a cached encoding still describes the
// relation it is asked for.  A relation containing a value outside the
// code space (only null ids ≥ 2^62 qualify) yields an Encoding with
// Ok() == false, which the plan layer treats as "fall back to the row
// path".

import (
	"sync"
	"sync/atomic"

	"incdata/internal/value"
)

// Dict is a per-database intern table for values that do not embed
// directly in the code space.  It only ever grows; codes are stable for
// the lifetime of the dictionary, and the same dictionary is shared by
// every snapshot and clone of a database lineage, so codes stay
// comparable across snapshots.  All methods are safe for concurrent use.
type Dict struct {
	mu   sync.RWMutex
	ids  map[value.Value]uint64 // value → full (tagged) code
	vals []value.Value          // dictionary index → value; append-only
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[value.Value]uint64)} }

// Encode returns the code of v, interning it when the code space cannot
// express it directly.  It reports false only for values outside the
// code space entirely: nulls with id ≥ 2^62 (nulls must never be
// interned, or the tag test CodeIsNull would lie) and dictionary
// overflow past 2^62 entries.
func (d *Dict) Encode(v value.Value) (uint64, bool) {
	if c, ok := value.EncodeDirect(v); ok {
		return c, true
	}
	if v.IsNull() {
		return 0, false
	}
	d.mu.RLock()
	c, ok := d.ids[v]
	d.mu.RUnlock()
	if ok {
		return c, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.ids[v]; ok {
		return c, true
	}
	idx := uint64(len(d.vals))
	if idx >= value.CodePayloadLimit {
		return 0, false
	}
	d.vals = append(d.vals, v)
	c = value.DictCode(idx)
	d.ids[v] = c
	return c, true
}

// Decode returns the value a code stands for.  The code must have been
// produced by this dictionary (or value.EncodeDirect).
func (d *Dict) Decode(code uint64) value.Value {
	if v, ok := value.DecodeDirect(code); ok {
		return v
	}
	d.mu.RLock()
	v := d.vals[value.DictIndex(code)]
	d.mu.RUnlock()
	return v
}

// Values returns the current decode table: Values()[i] is the value of
// dictionary code i.  The slice is append-only and its entries are
// immutable, so the returned header stays valid (for the indexes it
// covers) even while other goroutines keep interning; hot decode loops
// take one snapshot and refresh it only when they meet a newer code.
func (d *Dict) Values() []value.Value {
	d.mu.RLock()
	vals := d.vals
	d.mu.RUnlock()
	return vals
}

// Len returns the number of interned (dictionary-coded) values.
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.vals)
	d.mu.RUnlock()
	return n
}

// Encoding is the coded-column sidecar of a relation: one []uint64 code
// vector per column (all in the same arbitrary-but-fixed row order) plus
// the per-column all-constant sidecar of the col.Coded chunk layout.
// An Encoding is immutable once published.
type Encoding struct {
	dict   *Dict
	stamp  Stamp
	cols   [][]uint64
	consts []bool // per column: no null code present
	rows   int
	ok     bool // every value encoded; false → coded path must fall back
	// indexes caches coded hash indexes by key positions, CAS-published
	// exactly like Relation.indexes.
	indexes atomic.Pointer[[]*CodedIndex]
}

// Ok reports whether every value of the relation was encodable.  When
// false the other accessors carry partial data and must not be used.
func (e *Encoding) Ok() bool { return e != nil && e.ok }

// Rows returns the number of encoded rows.
func (e *Encoding) Rows() int { return e.rows }

// Col returns the code vector of column j.  It must not be mutated.
func (e *Encoding) Col(j int) []uint64 { return e.cols[j] }

// ColConst reports whether column j contains no null code.
func (e *Encoding) ColConst(j int) bool { return e.consts[j] }

// Dict returns the dictionary the encoding was built against.
func (e *Encoding) Dict() *Dict { return e.dict }

// Churn accounting for the coded sidecar.  A build is an O(relation)
// interning pass, repaid only when the sidecar is reused across several
// evaluations; the table layer cannot see evaluation boundaries, but a
// single evaluation makes at most a handful of Encoding calls per
// scanned relation (eligibility check, shared prepare, one per worker
// stream).  So every build charges encChurnCost — set well above one
// evaluation's worth of cache hits — while each hit repays a single
// point: a relation mutating every evaluation or two (view maintenance,
// update streams) rebuilds constantly, accumulates churn and is declined
// at encChurnLimit, while one that rebuilds at most every ~½ dozen
// evaluations decays back to zero.  Declined relations still rebuild
// one request in encProbeInterval, so a relation that goes quiet earns
// its way back under the limit; encChurnCap bounds how far a
// persistently hot relation can climb, keeping that recovery fast.
//
// The score lives in the lineage-shared encStats, not the relation
// header: under the engine's snapshot pattern a sidecar is built on a
// copy-on-write share while the mutations that doom it land on the live
// header, and only a lineage-wide score sees that the builds are never
// amortized.
const (
	encChurnCost     = 32
	encChurnLimit    = 64
	encChurnCap      = 128
	encProbeInterval = 16
)

// encStats counts coded-sidecar build and decline events for one relation
// lineage.  The pointer is shared across copy-on-write shares — like the
// churn score it complements — so Engine.Stats sees the lineage's history
// no matter which snapshot paid for a build.  Derived temporaries made by
// the plan layer carry a nil encStats; the methods are nil-safe.
type encStats struct {
	builds   atomic.Uint64
	declines atomic.Uint64
	churn    atomic.Uint32 // builds not yet repaid by reuse (see above)
	probe    atomic.Uint32 // declined-request counter driving probe rebuilds
}

// noteBuild counts one interning pass and charges the churn score for it;
// cache hits repay the charge one point at a time (churnDecay).
func (s *encStats) noteBuild() {
	if s == nil {
		return
	}
	s.builds.Add(1)
	if c := s.churn.Load(); c < encChurnCap {
		s.churn.CompareAndSwap(c, c+encChurnCost)
	}
}

func (s *encStats) noteDecline() {
	if s != nil {
		s.declines.Add(1)
	}
}

// churnDecay repays one churn point for a cache hit.
func (s *encStats) churnDecay() {
	if s == nil {
		return
	}
	if c := s.churn.Load(); c > 0 {
		s.churn.CompareAndSwap(c, c-1)
	}
}

// declining reports whether the churn score is at or past the decline
// limit; a nil encStats (plan-layer temporaries) never declines.
func (s *encStats) declining() bool {
	return s != nil && s.churn.Load() >= encChurnLimit
}

// probeNext advances the declined-request counter; every
// encProbeInterval-th request rebuilds anyway so a quiet relation can
// recover.
func (s *encStats) probeNext() uint32 {
	if s == nil {
		return 0
	}
	return s.probe.Add(1)
}

// EncodingStats is a point-in-time snapshot of one relation's coded-
// sidecar churn-guard state, surfaced through Engine.Stats: how many
// interning passes the relation has paid for, how many Encoding requests
// the churn guard turned away, and whether it is declining right now.
type EncodingStats struct {
	Builds   uint64 // coded sidecars built (full interning passes)
	Declines uint64 // Encoding requests declined by the churn guard
	Declined bool   // churn score currently at or above the decline limit
}

// Active reports whether the relation has any coded-sidecar history worth
// reporting.
func (s EncodingStats) Active() bool {
	return s.Builds > 0 || s.Declines > 0 || s.Declined
}

// EncodingStats returns the relation's encode/decline counters and whether
// the churn guard is currently declining sidecar builds for it.
func (r *Relation) EncodingStats() EncodingStats {
	if r == nil || r.encStats == nil {
		return EncodingStats{}
	}
	return EncodingStats{
		Builds:   r.encStats.builds.Load(),
		Declines: r.encStats.declines.Load(),
		Declined: r.encStats.declining(),
	}
}

// Encoding returns the relation's coded sidecar against the given
// dictionary, building it on first use and caching it on the relation.
// Concurrent callers are safe; any mutation of the relation invalidates
// the cache (and the stamp check below rejects an encoding that slipped
// past an interleaved mutation).  Check Ok on the result: a relation
// holding a value outside the code space encodes to a cached negative,
// and a relation churning faster than the cache pays off declines with
// nil (Ok() is nil-safe) until it quiets down again.
func (r *Relation) Encoding(dict *Dict) *Encoding {
	if r == nil || dict == nil {
		return nil
	}
	for {
		e := r.encoding.Load()
		if e != nil && e.dict == dict && e.stamp == r.Stamp() {
			r.encStats.churnDecay()
			return e
		}
		if r.encStats.declining() && r.encStats.probeNext()%encProbeInterval != 0 {
			r.encStats.noteDecline()
			return nil
		}
		ne := r.buildEncoding(dict)
		if r.encoding.CompareAndSwap(e, ne) {
			return ne
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

func (r *Relation) buildEncoding(dict *Dict) *Encoding {
	r.encStats.noteBuild()
	arity := r.schema.Arity()
	e := &Encoding{
		dict:   dict,
		stamp:  r.Stamp(),
		cols:   make([][]uint64, arity),
		consts: make([]bool, arity),
		rows:   r.Len(),
		ok:     true,
	}
	for j := range e.cols {
		e.cols[j] = make([]uint64, 0, e.rows)
		e.consts[j] = true
	}
	for _, t := range r.tuples {
		for j, v := range t {
			c, ok := dict.Encode(v)
			if !ok {
				e.ok = false
				return e
			}
			e.cols[j] = append(e.cols[j], c)
			if e.consts[j] && value.CodeIsNull(c) {
				e.consts[j] = false
			}
		}
	}
	return e
}

// AdoptEncoding publishes a pre-built coded sidecar: cols holds one code
// vector per column, row i across the vectors encoding exactly one
// stored tuple, with every stored tuple covered once (any order).  The
// coded execution path produces these vectors as a byproduct of
// materializing a temporary, so adopting them saves the full
// re-interning pass a later Encoding call would spend on values the
// materialization just decoded.  The caller must own the relation
// exclusively and must not mutate cols afterwards; vectors that don't
// match the relation's shape are ignored.
func (r *Relation) AdoptEncoding(dict *Dict, cols [][]uint64) {
	if r == nil || dict == nil || len(cols) != r.Arity() {
		return
	}
	e := &Encoding{
		dict:   dict,
		stamp:  r.Stamp(),
		cols:   cols,
		consts: make([]bool, len(cols)),
		rows:   r.Len(),
		ok:     true,
	}
	for j, col := range cols {
		if len(col) != e.rows {
			return
		}
		cst := true
		for _, code := range col {
			if value.CodeIsNull(code) {
				cst = false
				break
			}
		}
		e.consts[j] = cst
	}
	r.encoding.Store(e)
}

// invalidateEncoding drops the cached coded sidecar; every mutation path
// calls it (via invalidateDerived).  The churn score is charged at build
// time and repaid by cache hits (see encStats), so dropping the cache
// needs no extra accounting here — a doomed build has already paid.
func (r *Relation) invalidateEncoding() {
	if r.encoding.Load() != nil {
		r.encoding.Store(nil)
	}
}

// CodedIndex is an immutable hash index over raw u64 codes: tuples are
// grouped by the HashCode-fold of their codes at a fixed list of key
// positions, in the same chained-slice layout as Index, but rows are
// stored as arity-strided code tuples instead of value tuples — probes
// hash machine words and verify matches by u64 equality, with no binary
// key encoding and no allocation.  Distinct keys may share a hash
// bucket; callers verify candidates with MatchesKey.
type CodedIndex struct {
	positions []int
	arity     int
	heads     map[uint64]int32 // code hash → 1-based head into entries
	entries   []codedEntry
	codes     []uint64 // row-major, arity-strided code tuples
	complete  bool     // every indexed row is null-free
}

type codedEntry struct {
	row  int32 // row number into codes (×arity)
	next int32 // 1-based index into entries; 0 terminates the chain
}

// Positions returns the key positions the index hashes on.
func (ix *CodedIndex) Positions() []int { return ix.positions }

// AllComplete reports whether every indexed row is null-free.
func (ix *CodedIndex) AllComplete() bool { return ix.complete }

// Len returns the number of indexed rows.
func (ix *CodedIndex) Len() int { return len(ix.entries) }

// Lookup returns the head of the chain for the given key-code hash (as
// folded by value.HashCode over the key positions), or 0 if none.
func (ix *CodedIndex) Lookup(h uint64) int32 { return ix.heads[h] }

// At returns the row stored at chain slot i (1-based, as returned by
// Lookup) and the next slot of the chain (0 terminates).
func (ix *CodedIndex) At(i int32) (row int32, next int32) {
	e := ix.entries[i-1]
	return e.row, e.next
}

// Row returns the full code tuple of a row.  It must not be mutated.
func (ix *CodedIndex) Row(row int32) []uint64 {
	a := int(row) * ix.arity
	return ix.codes[a : a+ix.arity]
}

// MatchesKey reports whether the row's codes at the key positions equal
// the probe key (key[k] corresponds to positions[k]).
func (ix *CodedIndex) MatchesKey(row int32, key []uint64) bool {
	rc := ix.Row(row)
	for k, p := range ix.positions {
		if rc[p] != key[k] {
			return false
		}
	}
	return true
}

// HasKey reports whether any indexed row matches the probe key with the
// given hash — the coded counterpart of Relation.ContainsKey for
// difference membership.
func (ix *CodedIndex) HasKey(h uint64, key []uint64) bool {
	for e := ix.Lookup(h); e != 0; {
		row, next := ix.At(e)
		if ix.MatchesKey(row, key) {
			return true
		}
		e = next
	}
	return false
}

// Index returns a coded hash index of the encoding over the given key
// positions, building it on first use and caching it on the encoding
// (CAS-published like Relation.Index).  It returns nil on a failed
// encoding.  The positions slice is copied.
func (e *Encoding) Index(positions []int) *CodedIndex {
	if !e.Ok() {
		return nil
	}
	for {
		set := e.indexes.Load()
		if set != nil {
			for _, ix := range *set {
				if samePositions(ix.positions, positions) {
					return ix
				}
			}
		}
		ix := newCodedIndexFromCols(positions, e.cols, e.rows)
		var cur []*CodedIndex
		if set != nil {
			cur = *set
		}
		next := make([]*CodedIndex, 0, len(cur)+1)
		next = append(next, cur...)
		next = append(next, ix)
		if e.indexes.CompareAndSwap(set, &next) {
			return ix
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

// NewCodedIndexFromCols builds a coded hash index directly from
// column-wise code vectors (row i across the vectors is one code tuple;
// rows must already be distinct).  The coded join uses it to index a
// derived build side straight off its coded stream, without ever
// materializing the side as tuples.  The vectors are read once and not
// retained.
func NewCodedIndexFromCols(positions []int, cols [][]uint64, rows int) *CodedIndex {
	return newCodedIndexFromCols(positions, cols, rows)
}

func newCodedIndexFromCols(positions []int, cols [][]uint64, rows int) *CodedIndex {
	arity := len(cols)
	ix := &CodedIndex{
		positions: append([]int(nil), positions...),
		arity:     arity,
		heads:     make(map[uint64]int32, rows),
		entries:   make([]codedEntry, 0, rows),
		codes:     make([]uint64, 0, rows*arity),
		complete:  true,
	}
	for i := 0; i < rows; i++ {
		h := value.CodeHashSeed
		for _, p := range positions {
			h = value.HashCode(h, cols[p][i])
		}
		for j := 0; j < arity; j++ {
			c := cols[j][i]
			ix.codes = append(ix.codes, c)
			if ix.complete && value.CodeIsNull(c) {
				ix.complete = false
			}
		}
		head := ix.heads[h]
		ix.entries = append(ix.entries, codedEntry{row: int32(i), next: head})
		ix.heads[h] = int32(len(ix.entries))
	}
	return ix
}

// codedBucket caches one partition bucket's coded index together with
// the dictionary it was encoded against; ix is nil when the bucket holds
// a value outside the code space (a cached negative).
type codedBucket struct {
	dict *Dict
	ix   *CodedIndex
}

// CodedIndex returns the coded hash index of bucket i over the
// partitioning's positions, encoding the bucket's tuples against dict
// and caching the result per bucket (CAS-published like Index).  It
// returns nil when dict is nil or a bucket value is outside the code
// space — callers fall back to the binary-key Index.  It panics on a
// round-robin partitioning, which has no key columns.
func (p *Partitioning) CodedIndex(i int, dict *Dict) *CodedIndex {
	if p.positions == nil {
		panic("table: CodedIndex on a round-robin partitioning")
	}
	if dict == nil {
		return nil
	}
	for {
		cb := p.coded[i].Load()
		if cb != nil && cb.dict == dict {
			return cb.ix
		}
		ncb := &codedBucket{dict: dict, ix: newCodedIndexFromTuples(p.positions, p.buckets[i], dict)}
		if p.coded[i].CompareAndSwap(cb, ncb) {
			return ncb.ix
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

// newCodedIndexFromTuples encodes a tuple slice against dict and indexes
// it; it returns nil when any value is outside the code space.
func newCodedIndexFromTuples(positions []int, ts []Tuple, dict *Dict) *CodedIndex {
	arity := 0
	if len(ts) > 0 {
		arity = len(ts[0])
	}
	ix := &CodedIndex{
		positions: append([]int(nil), positions...),
		arity:     arity,
		heads:     make(map[uint64]int32, len(ts)),
		entries:   make([]codedEntry, 0, len(ts)),
		codes:     make([]uint64, 0, len(ts)*arity),
		complete:  true,
	}
	row := make([]uint64, arity)
	for i, t := range ts {
		for j, v := range t {
			c, ok := dict.Encode(v)
			if !ok {
				return nil
			}
			row[j] = c
			if ix.complete && value.CodeIsNull(c) {
				ix.complete = false
			}
		}
		h := value.CodeHashSeed
		for _, p := range positions {
			h = value.HashCode(h, row[p])
		}
		ix.codes = append(ix.codes, row...)
		head := ix.heads[h]
		ix.entries = append(ix.entries, codedEntry{row: int32(i), next: head})
		ix.heads[h] = int32(len(ix.entries))
	}
	return ix
}
