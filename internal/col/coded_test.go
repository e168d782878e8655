package col

import (
	"testing"

	"incdata/internal/table"
	"incdata/internal/value"
)

func sampleTuples() []table.Tuple {
	return []table.Tuple{
		table.NewTuple(value.Int(1), value.String("x")),
		table.NewTuple(value.Int(2), value.Null(7)),
		table.NewTuple(value.Null(3), value.String("y")),
		table.NewTuple(value.Int(4), value.String("z")),
	}
}

// codedChunk encodes tuples row by row into a fresh coded chunk against
// dict, the way the plan layer's row bridge does.
func codedChunk(t *testing.T, dict *table.Dict, ts []table.Tuple, arity int) *Coded {
	t.Helper()
	c := NewCoded(arity, len(ts))
	for _, tp := range ts {
		for j, v := range tp {
			code, ok := dict.Encode(v)
			if !ok {
				t.Fatalf("Encode(%v) not ok", v)
			}
			c.Append(j, code)
		}
		c.EndRow()
	}
	return c
}

// TestRoundTrip pins the row bridge: tuples encoded into a coded chunk
// decode back to exactly the input, row for row and column for column.
func TestRoundTrip(t *testing.T) {
	ts := sampleTuples()
	dict := table.NewDict()
	c := codedChunk(t, dict, ts, 2)
	if c.Rows != len(ts) || c.Arity() != 2 {
		t.Fatalf("Rows=%d Arity=%d, want %d,2", c.Rows, c.Arity(), len(ts))
	}
	for i, want := range ts {
		for j := range want {
			if len(c.Cols[j]) != c.Rows {
				t.Fatalf("column %d has %d codes for %d rows", j, len(c.Cols[j]), c.Rows)
			}
			if got := dict.Decode(c.Cols[j][i]); got != want[j] {
				t.Fatalf("row %d col %d decodes to %v, want %v", i, j, got, want[j])
			}
		}
	}
}

// TestSidecar pins the all-constant sidecar semantics.
func TestSidecar(t *testing.T) {
	dict := table.NewDict()
	c := codedChunk(t, dict, []table.Tuple{table.NewTuple(value.Int(1), value.String("x"))}, 2)
	if !c.AllConst() {
		t.Fatalf("constant-only chunk must be all-constant")
	}
	for j, v := range table.NewTuple(value.Null(1), value.String("y")) {
		code, _ := dict.Encode(v)
		c.Append(j, code)
	}
	c.EndRow()
	if c.AllConst() {
		t.Fatalf("chunk with a null must not be all-constant")
	}
	if c.Const[0] || !c.Const[1] {
		t.Fatalf("sidecar wrong: Const=%v, want [false true]", c.Const)
	}
	c.Reset(2)
	if !c.AllConst() || c.Rows != 0 {
		t.Fatalf("Reset must restore the all-constant sidecar")
	}
}

// TestCompleteSel pins the coded completeness scan against the
// per-tuple IsComplete oracle, including the all-constant short-circuit.
func TestCompleteSel(t *testing.T) {
	ts := sampleTuples()
	dict := table.NewDict()
	c := codedChunk(t, dict, ts, 2)
	got, used := c.CompleteSel(nil, nil)
	if !used {
		t.Fatalf("chunk with nulls must scan")
	}
	var want []int32
	for i, tp := range ts {
		if tp.IsComplete() {
			want = append(want, int32(i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("CompleteSel = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CompleteSel = %v, want %v", got, want)
		}
	}

	// Restricted input selection narrows within it.
	sel := []int32{0, 1, 2}
	got, _ = c.CompleteSel(sel, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("CompleteSel(%v) = %v, want [0]", sel, got)
	}

	// All-constant chunks return the input selection untouched.
	c = codedChunk(t, dict, []table.Tuple{table.NewTuple(value.Int(1), value.Int(2))}, 2)
	in := []int32{0}
	got, used = c.CompleteSel(in, nil)
	if used || len(got) != 1 || got[0] != 0 {
		t.Fatalf("all-constant CompleteSel must pass the selection through, got %v used=%v", got, used)
	}
}
