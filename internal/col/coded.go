// Package col provides the chunk layout of the vectorized execution
// path: a Coded chunk holds a batch of tuples column-wise, one
// contiguous []uint64 code vector per attribute (see internal/value code
// space and internal/table.Dict), so operator kernels (internal/plan)
// run as branch-free u64 loops — no kind dispatch, no string pointers,
// nothing for the GC to trace — instead of per-row closure calls.
//
// A chunk carries a per-column "all constants" sidecar (Const): column j
// is marked true while no null code has been appended to it.  Kernels
// use the sidecar to skip null handling wholesale — certain-answer
// materialization skips the per-row completeness scan over all-constant
// columns, and the hash-join probe takes its all-constant fast path when
// both the probe columns and the build side are null-free.  Null
// detection on codes is a pure tag test (value.CodeIsNull), so the
// sidecar and CompleteSel stay exact without consulting any dictionary.
//
// Chunks emitted by scans may be zero-copy views into a cached
// table.Encoding; consumers must treat Cols as read-only and must not
// retain them past the emit callback.
package col

import "incdata/internal/value"

// Coded is a column-major batch of code tuples: Cols[j][i] is the code
// of attribute j of row i.  All columns have length Rows.  The zero
// Coded is empty and ready for Reset.
type Coded struct {
	// Cols holds one code vector per attribute.
	Cols [][]uint64
	// Const is the null sidecar: Const[j] is true while column j contains
	// no null code.
	Const []bool
	// Rows is the number of rows in the chunk.
	Rows int
}

// NewCoded returns a coded chunk with the given arity, each column
// pre-allocated to the given capacity.
func NewCoded(arity, capacity int) *Coded {
	c := &Coded{}
	c.Reset(arity)
	for j := range c.Cols {
		c.Cols[j] = make([]uint64, 0, capacity)
	}
	return c
}

// Reset truncates the chunk to zero rows with the given arity, keeping
// column capacity for reuse.  The sidecar resets to all-constant.
func (c *Coded) Reset(arity int) {
	if cap(c.Cols) < arity || cap(c.Const) < arity {
		c.Cols = make([][]uint64, arity)
		c.Const = make([]bool, arity)
	}
	c.Cols = c.Cols[:arity]
	c.Const = c.Const[:arity]
	for j := range c.Cols {
		c.Cols[j] = c.Cols[j][:0]
		c.Const[j] = true
	}
	c.Rows = 0
}

// Arity returns the number of columns.
func (c *Coded) Arity() int { return len(c.Cols) }

// Append appends one code to column j, maintaining the sidecar.  Callers
// append one code to every column, then call EndRow.
func (c *Coded) Append(j int, code uint64) {
	c.Cols[j] = append(c.Cols[j], code)
	if c.Const[j] && value.CodeIsNull(code) {
		c.Const[j] = false
	}
}

// EndRow accounts for one fully appended row.
func (c *Coded) EndRow() { c.Rows++ }

// AllConst reports whether every column of the chunk is all-constant.
func (c *Coded) AllConst() bool {
	for _, cc := range c.Const {
		if !cc {
			return false
		}
	}
	return true
}

// CompleteSel narrows sel (nil = all rows) to the rows with no null code
// in any column, appending the surviving row indexes to dst.
// All-constant columns are skipped via the sidecar; when every column is
// all-constant the input selection is returned unchanged without
// touching dst.
func (c *Coded) CompleteSel(sel []int32, dst []int32) ([]int32, bool) {
	if c.AllConst() {
		return sel, false
	}
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < c.Rows; i++ {
			if c.rowComplete(i) {
				dst = append(dst, int32(i))
			}
		}
		return dst, true
	}
	for _, i := range sel {
		if c.rowComplete(int(i)) {
			dst = append(dst, i)
		}
	}
	return dst, true
}

// rowComplete reports whether row i has no null code, skipping
// all-constant columns.
func (c *Coded) rowComplete(i int) bool {
	for j, col := range c.Cols {
		if c.Const[j] {
			continue
		}
		if value.CodeIsNull(col[i]) {
			return false
		}
	}
	return true
}
