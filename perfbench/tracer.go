package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call at a layer boundary: the benchmark's own call
// into a layer's public function, or the request that caused it.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // request or batch index; -1 for set-up
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // request class or build kind
	Start  int64  `json:"start_ns"`       // since the tracer started
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil Tracer records
// nothing, which is how the untraced run measures end-to-end metrics.
// It is not safe for concurrent use: each run records from one goroutine.
type Tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id (0 when tracing is off), so
// spans opened before End can name it as their parent.
func (t *Tracer) Begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	return t.Add(Span{Parent: parent, Req: req, Name: name, Start: now, End: now})
}

// End closes the span Begin opened.
func (t *Tracer) End(id int) {
	if t != nil && id > 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// Time runs f inside a span and returns the span's id.
func (t *Tracer) Time(name string, parent, req int, f func() error) (int, error) {
	id := t.Begin(name, parent, req)
	err := f()
	t.End(id)
	return id, err
}

// Add records a span measured elsewhere and returns its id.
func (t *Tracer) Add(s Span) int {
	if t == nil {
		return 0
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// Since converts a wall-clock instant to the tracer's time base.
func (t *Tracer) Since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteFile writes a provenance header line and one JSON line per span.
func (t *Tracer) WriteFile(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
