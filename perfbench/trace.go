package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span, -1 at the top of an op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine only.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
	stack  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// nextOp starts a new operation: later spans belong to it.
func (t *tracer) nextOp() {
	t.op++
	t.stack = t.stack[:0]
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, i)
	return func() {
		t.spans[i].End = int64(time.Since(t.origin))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// total sums the durations of every span with this name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// count is the number of spans with this name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// topLevel sums the durations of the spans at the top of each op: the
// layer calls the op is made of.
func (t *tracer) topLevel() time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
