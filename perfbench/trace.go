package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary.  Spans of one operation
// share Req; Parent is the index+1 of the enclosing span, 0 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory and writes them out when the run ends.  A
// disabled tracer records nothing, so untraced runs pay one branch per
// boundary.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, req int64, f func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes groups the closed root spans by name and reports, for each
// root name, the span count, the median duration, and the median self time
// of each child name: the child's duration minus the part its own children
// cover.  The root's own self time is the unattributed remainder.
func (t *tracer) selfTimes() map[string]any {
	t.mu.Lock()
	defer t.mu.Unlock()
	cover := make([]int64, len(t.spans)) // time covered by each span's children
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			cover[s.Parent-1] += s.End - s.Start
		}
	}
	root := func(i int) int {
		for t.spans[i].Parent > 0 {
			i = t.spans[i].Parent - 1
		}
		return i
	}
	type acc struct {
		total, self []float64
		child       map[string][]float64
	}
	byOp := map[string]*acc{}
	get := func(name string) *acc {
		a := byOp[name]
		if a == nil {
			a = &acc{child: map[string][]float64{}}
			byOp[name] = a
		}
		return a
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := float64(s.End-s.Start-cover[i]) / 1e6
		if s.Parent == 0 {
			a := get(s.Name)
			a.total = append(a.total, float64(s.End-s.Start)/1e6)
			a.self = append(a.self, self)
			continue
		}
		a := get(t.spans[root(i)].Name)
		a.child[s.Name] = append(a.child[s.Name], self)
	}
	out := map[string]any{}
	for name, a := range byOp {
		layers := map[string]float64{}
		for c, xs := range a.child {
			layers[c] = round(median(xs))
		}
		out[name] = map[string]any{
			"n":               len(a.total),
			"p50_ms":          round(median(a.total)),
			"self_ms":         layers,
			"unattributed_ms": round(median(a.self)),
		}
	}
	return out
}
