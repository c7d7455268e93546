package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one op
// (or one ladder repetition) share Op; Parent is the ID of the enclosing
// span, 0 at the top. Times are nanoseconds since the tracer started.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer records spans in memory; nothing is written until the run ends. A
// nil tracer records nothing, which is how untraced ops run the same code.
// It is used from the benchmark's one client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indices into spans of the open spans
	op    int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// nextOp starts a new op: spans recorded from here on carry its ID.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span named name and returns its handle for end. The name's
// prefix up to the first '.' is the layer the time belongs to.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: idx + 1, Parent: parent, Name: name})
	t.stack = append(t.stack, idx)
	t.spans[idx].Start = time.Since(t.t0).Nanoseconds()
	return idx + 1
}

// end closes the span begin returned h for; spans close innermost first.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.spans[h-1].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// depth is the number of open spans; unwind closes every span opened above
// a depth, for a caller that recovered from a panic inside them.
func (t *tracer) depth() int {
	if t == nil {
		return 0
	}
	return len(t.stack)
}

func (t *tracer) unwind(depth int) {
	for t != nil && len(t.stack) > depth {
		t.end(t.stack[len(t.stack)-1] + 1)
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	h := t.begin(name)
	f()
	t.end(h)
}

// mark returns a position in the span log; since(mark) are the spans
// recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

func (t *tracer) since(m int) []span {
	if t == nil {
		return nil
	}
	return t.spans[m:]
}

// layerOf maps a span name to its layer: "agg.countvec" → "agg".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes attributes a batch of spans to layers: a span's self time is
// its duration minus the time its direct children cover, and a layer's self
// time is the sum over its spans. The result is in microseconds.
func selfTimes(spans []span) map[string]float64 {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += float64(s.End-s.Start-child[s.ID]) / 1e3
	}
	return out
}

// durations returns the duration in µs of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeJSONL writes one JSON object per span.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
