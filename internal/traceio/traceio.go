// Package traceio reads and writes execution traces. Two formats are
// provided, both streamed so Table II-scale traces (hundreds of millions of
// events, gigabytes on disk) never need to fit in memory:
//
//   - CSV: a Paje-flavoured line format, human-readable and diffable — the
//     header declares the window, resources and states, then one "event"
//     line per state occurrence;
//   - binary: a compact little-endian record format ("OCLT"), roughly 5×
//     smaller and an order of magnitude faster to decode.
//
// Either format can be gzip-compressed; readers sniff compression and
// format from the content, writers choose from the file extension
// (.csv, .csv.gz, .bin, .bin.gz).
//
// The paper's tooling reads Score-P/OTF2 traces; these codecs play that
// role (the traces here are "parsed manually" from our own formats), and
// the "trace reading" phase of Table II is measured through them.
package traceio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"iter"
	"os"
	"strings"

	"ocelotl/internal/failpoint"
	"ocelotl/internal/trace"
)

// Format identifies a trace encoding.
type Format int

const (
	// FormatCSV is the Paje-flavoured text format.
	FormatCSV Format = iota
	// FormatBinary is the compact OCLT record format.
	FormatBinary
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "csv"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// FormatForPath picks the format and compression from a file name.
// Unknown extensions default to binary, uncompressed.
func FormatForPath(path string) (f Format, gzipped bool) {
	p := strings.ToLower(path)
	if strings.HasSuffix(p, ".gz") {
		gzipped = true
		p = strings.TrimSuffix(p, ".gz")
	}
	if strings.HasSuffix(p, ".csv") || strings.HasSuffix(p, ".paje") || strings.HasSuffix(p, ".txt") {
		return FormatCSV, gzipped
	}
	return FormatBinary, gzipped
}

// Writer is a streaming trace encoder. Events may arrive in any order.
// Close must be called to flush buffers (and terminate gzip streams).
type Writer interface {
	WriteEvent(trace.Event) error
	Close() error
}

// Flusher is implemented by writers that can push everything written so
// far down to the destination without closing the stream — what a live
// writer calls between batches so a TailReader sees complete records.
// All writers returned by NewWriter and CreateFile implement it.
type Flusher interface {
	Flush() error
}

// Flush flushes w if it supports mid-stream flushing and is a no-op
// otherwise.
func Flush(w Writer) error {
	if fl, ok := w.(Flusher); ok {
		return fl.Flush()
	}
	return nil
}

// Header carries the trace metadata every format encodes before events.
type Header struct {
	Resources  []string
	States     []string
	Start, End float64
}

// Validate rejects headers that would produce unreadable traces.
func (h Header) Validate() error {
	if len(h.Resources) == 0 {
		return fmt.Errorf("traceio: header has no resources")
	}
	if len(h.States) == 0 {
		return fmt.Errorf("traceio: header has no states")
	}
	for _, r := range h.Resources {
		if strings.ContainsAny(r, ",\n") {
			return fmt.Errorf("traceio: resource path %q contains a delimiter", r)
		}
	}
	for _, s := range h.States {
		if strings.ContainsAny(s, ",\n") {
			return fmt.Errorf("traceio: state name %q contains a delimiter", s)
		}
	}
	return nil
}

// NewWriter returns a streaming encoder for the given format writing to w.
// The caller remains responsible for closing w if it is a file.
func NewWriter(w io.Writer, format Format, hdr Header) (Writer, error) {
	if err := hdr.Validate(); err != nil {
		return nil, err
	}
	switch format {
	case FormatCSV:
		return newCSVWriter(w, hdr)
	case FormatBinary:
		return newBinaryWriter(w, hdr)
	default:
		return nil, fmt.Errorf("traceio: unknown format %v", format)
	}
}

// Reader is a streaming trace decoder. It implements
// microscopic.EventSource so models can be built without materializing
// events.
type Reader interface {
	Resources() []string
	States() []string
	Window() (start, end float64)
	Next(*trace.Event) error // io.EOF at end
	Close() error
}

// fileWriter wraps a Writer with the file and optional gzip layer beneath
// it, closing all three in order.
type fileWriter struct {
	Writer
	gz *gzip.Writer
	f  *os.File
}

// Flush pushes buffered events through the encoder (and the gzip layer,
// as a sync point) down to the file, so a concurrent reader of the path
// sees every record written so far.
func (fw *fileWriter) Flush() error {
	if fl, ok := fw.Writer.(Flusher); ok {
		if err := fl.Flush(); err != nil {
			return err
		}
	}
	if fw.gz != nil {
		return fw.gz.Flush()
	}
	return nil
}

func (fw *fileWriter) Close() error {
	err := fw.Writer.Close()
	if fw.gz != nil {
		if e := fw.gz.Close(); err == nil {
			err = e
		}
	}
	if e := fw.f.Close(); err == nil {
		err = e
	}
	return err
}

// CreateFile opens path for writing and returns a streaming writer using
// the format implied by the extension.
func CreateFile(path string, hdr Header) (Writer, error) {
	format, gzipped := FormatForPath(path)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if gzipped {
		gz = gzip.NewWriter(f)
		w = gz
	}
	inner, err := NewWriter(w, format, hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileWriter{Writer: inner, gz: gz, f: f}, nil
}

// WriteFile encodes a whole in-memory trace to path (format from the
// extension).
func WriteFile(path string, tr *trace.Trace) error {
	start, end := tr.Window()
	w, err := CreateFile(path, Header{Resources: tr.Resources, States: tr.States, Start: start, End: end})
	if err != nil {
		return err
	}
	for _, e := range tr.Events {
		if err := w.WriteEvent(e); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// FailpointOpen names the fault-injection site at the head of every
// trace-file open (chaos tests for the load path).
const FailpointOpen = "traceio/open"

// OpenFile opens a trace file for streaming reads, sniffing gzip
// compression and the format from the content (not the name).
func OpenFile(path string) (Reader, error) {
	if err := failpoint.Inject(FailpointOpen); err != nil {
		return nil, fmt.Errorf("traceio: %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Past the peeked bytes, buffer-sized reads bypass br.
	br := bufio.NewReader(f)
	closers := []io.Closer{f}
	var src io.Reader = br
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b { // gzip
		gz, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("traceio: %s: %w", path, err)
		}
		closers = append(closers, gz)
		src = gz
	}
	r, err := newRecords(streamSource(src), closers...)
	if err != nil {
		return nil, fmt.Errorf("traceio: %s: %w", path, err)
	}
	return r, nil
}

// NewReader sniffs the format from the stream content and returns the
// matching decoder. The stream must not be gzip-compressed (OpenFile
// handles that layer). Its end is final: a clean end of stream is io.EOF
// at a record boundary and a CorruptError inside a record.
func NewReader(r io.Reader) (Reader, error) {
	rec, err := newRecords(streamSource(r))
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// streamSource reads r front to back; the offset is implied. A short read
// is not an error: the end of the stream shows up on the next call, as
// io.EOF or as r's own error (a cut gzip stream keeps answering
// io.ErrUnexpectedEOF).
func streamSource(r io.Reader) func([]byte, int64) (int, error) {
	return func(p []byte, _ int64) (int, error) {
		n, err := io.ReadFull(r, p)
		if err == io.ErrUnexpectedEOF && n > 0 {
			err = nil
		}
		return n, err
	}
}

// Events adapts a streaming source's Next loop to a single-pass range
// iterator: each yielded pair is either (event, nil) or, exactly once at
// the end of a failed stream, (zero, err). io.EOF is consumed, not
// yielded. No `[]Event` is ever materialized, and decode errors pass
// through unwrapped, so a CorruptError's byte offset survives into the
// consumer — the store builder reports "trace corrupt at byte N" from
// the far side of this iterator. The source is NOT closed; callers own
// its lifetime (break out of the range freely, then Close).
func Events(src interface{ Next(*trace.Event) error }) iter.Seq2[trace.Event, error] {
	return func(yield func(trace.Event, error) bool) {
		var ev trace.Event
		for {
			if err := src.Next(&ev); err != nil {
				if err != io.EOF {
					yield(trace.Event{}, err)
				}
				return
			}
			if !yield(ev, nil) {
				return
			}
		}
	}
}

// ReadFile decodes a whole trace file into memory.
func ReadFile(path string) (*trace.Trace, error) {
	r, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	tr := trace.New(append([]string(nil), r.Resources()...), append([]string(nil), r.States()...))
	tr.Start, tr.End = r.Window()
	for ev, err := range Events(r) {
		if err != nil {
			return nil, err
		}
		tr.AddEvent(ev)
	}
	return tr, nil
}

// CountEvents streams through a trace file and returns the event count —
// the cheap full-scan used by tooling to report Table II-style rows.
func CountEvents(path string) (int64, error) {
	r, err := OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	var n int64
	for _, err := range Events(r) {
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
