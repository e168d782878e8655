package col

import (
	"testing"

	"incdata/internal/value"
)

// TestCodedResetReuseAcrossArities is the pooled-reuse regression test
// for Reset: one chunk cycled through shrinking and growing arities (the
// lifecycle a sync.Pool imposes) must always present exactly arity
// columns, all empty and all-constant, with no state leaking from the
// wider life before it.
func TestCodedResetReuseAcrossArities(t *testing.T) {
	nullCode := func(id uint64) uint64 {
		c, ok := value.EncodeDirect(value.Null(id))
		if !ok {
			t.Fatalf("null %d must encode directly", id)
		}
		return c
	}
	c := &Coded{}
	for _, arity := range []int{3, 1, 4, 2, 4, 0, 3} {
		c.Reset(arity)
		if got := c.Arity(); got != arity {
			t.Fatalf("Arity = %d after Reset(%d)", got, arity)
		}
		if len(c.Const) != arity || c.Rows != 0 {
			t.Fatalf("len(Const) = %d, Rows = %d after Reset(%d)", len(c.Const), c.Rows, arity)
		}
		// Dirty every column with a null so a buggy Reset would leak a
		// false Const or a stale row into the next cycle.
		for j := 0; j < arity; j++ {
			if len(c.Cols[j]) != 0 || !c.Const[j] {
				t.Fatalf("column %d dirty after Reset(%d)", j, arity)
			}
			c.Append(j, nullCode(uint64(j+1)))
		}
		if arity > 0 {
			c.EndRow()
			if c.AllConst() {
				t.Fatal("null codes must clear the sidecar")
			}
		}
	}
}

// TestChunkResetDivergedCaps pins the independent-caps guard of the
// coded chunk: a manually assembled chunk whose Cols and Const
// capacities diverge must not slice Const out of range (or silently keep
// it short) when the arity grows back past the smaller capacity.
func TestChunkResetDivergedCaps(t *testing.T) {
	null, _ := value.EncodeDirect(value.Null(1))
	one, _ := value.EncodeDirect(value.Int(1))

	c := &Coded{
		Cols:  make([][]uint64, 4),
		Const: make([]bool, 2),
	}
	c.Reset(1)
	c.Reset(3) // within cap(Cols), beyond cap(Const)
	if len(c.Cols) != 3 || len(c.Const) != 3 {
		t.Fatalf("len(Cols) = %d, len(Const) = %d, want 3 and 3", len(c.Cols), len(c.Const))
	}
	c.Append(0, one)
	c.Append(1, one)
	c.Append(2, null)
	c.EndRow()
	if !c.Const[0] || c.Const[2] {
		t.Fatalf("sidecar wrong after append: %v", c.Const)
	}

	// And the mirror case: Const wide, Cols narrow.
	c2 := &Coded{
		Cols:  make([][]uint64, 2),
		Const: make([]bool, 4),
	}
	c2.Reset(3)
	if len(c2.Cols) != 3 || len(c2.Const) != 3 {
		t.Fatalf("len(Cols) = %d, len(Const) = %d, want 3 and 3", len(c2.Cols), len(c2.Const))
	}
	for j := 0; j < 3; j++ {
		c2.Append(j, one)
	}
	c2.EndRow()
	if c2.Rows != 1 || !c2.AllConst() {
		t.Fatalf("Rows = %d, AllConst = %v", c2.Rows, c2.AllConst())
	}
}
