package traceio

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocelotl/internal/trace"
)

// readBoth decodes data through the batch reader (OpenFile) and the tail
// reader (OpenTail), returning each one's events and terminal error. An
// OpenTail failure comes back as the tail's error with no events.
func readBoth(t *testing.T, data []byte, name string) (batch []trace.Event, batchErr error, tail []trace.Event, tailErr error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		batchErr = err
	} else {
		var ev trace.Event
		for batchErr = r.Next(&ev); batchErr == nil; batchErr = r.Next(&ev) {
			batch = append(batch, ev)
		}
		r.Close()
	}
	tr, err := OpenTail(path)
	if err != nil {
		return batch, batchErr, nil, err
	}
	defer tr.Close()
	tail, tailErr = drainTail(tr)
	return batch, batchErr, tail, tailErr
}

// TestOverlongCSVLineIsCorrupt: an event line past the 1 MiB line cap is
// a CorruptError carrying its line number from both readers, whether or
// not the file ends with '\n' — the tail does not buffer it waiting for
// the line to end.
func TestOverlongCSVLineIsCorrupt(t *testing.T) {
	valid := encodeTrace(t, sampleTrace(), FormatCSV)
	wantLine := bytes.Count(valid, []byte("\n")) + 1
	long := append(append([]byte{}, valid...), "event,0,0,1,"+strings.Repeat("0", maxLine)...)
	for name, data := range map[string][]byte{
		"terminated":   append(append([]byte{}, long...), '\n'),
		"unterminated": long,
	} {
		t.Run(name, func(t *testing.T) {
			batch, batchErr, tail, tailErr := readBoth(t, data, "t.csv")
			for reader, err := range map[string]error{"batch": batchErr, "tail": tailErr} {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("%s: error %v (%T) is not a CorruptError", reader, err, err)
				}
				if ce.Line != wantLine {
					t.Errorf("%s: CorruptError.Line = %d, want %d", reader, ce.Line, wantLine)
				}
			}
			if len(batch) != 4 || len(tail) != 4 {
				t.Errorf("events before the long line: batch %d, tail %d, want 4", len(batch), len(tail))
			}
		})
	}
}

// TestEOFRules pins the only places the batch and tail readers may differ:
// the end of the file is final to the batch reader and never to the tail.
func TestEOFRules(t *testing.T) {
	tr := sampleTrace()
	csv := encodeTrace(t, tr, FormatCSV)
	bin := encodeTrace(t, tr, FormatBinary)
	csvHeader := encodeTrace(t, &trace.Trace{Resources: tr.Resources, States: tr.States, Start: 0, End: 10}, FormatCSV)
	const record = 18 // each sampleTrace record: two 1-byte varints and two f64s
	cases := []struct {
		name       string
		file       string
		data       []byte
		batch      int   // events the batch reader decodes
		batchEnd   error // io.EOF, or nil for a CorruptError
		badOffset  int64 // the batch CorruptError's offset: where the bytes ran out
		tail       int   // events the tail reader decodes before ErrIncomplete
		tailOpened bool  // false: OpenTail itself is incomplete
	}{
		{"csv-final-line-without-newline", "t.csv", csv[:len(csv)-1], 4, io.EOF, 0, 3, true},
		{"csv-header-only", "t.csv", csvHeader, 0, io.EOF, 0, 0, false},
		{"binary-cut-mid-record", "t.bin", bin[:len(bin)-5], 3, nil, int64(len(bin) - 5), 3, true},
		{"binary-cut-at-record-boundary", "t.bin", bin[:len(bin)-record], 3, io.EOF, 0, 3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batch, batchErr, tail, tailErr := readBoth(t, c.data, c.file)
			if len(batch) != c.batch {
				t.Errorf("batch decoded %d events, want %d", len(batch), c.batch)
			}
			if c.batchEnd != nil {
				if batchErr != c.batchEnd {
					t.Errorf("batch end = %v, want %v", batchErr, c.batchEnd)
				}
			} else {
				var ce *CorruptError
				if !errors.As(batchErr, &ce) {
					t.Fatalf("batch end = %v, want a CorruptError", batchErr)
				}
				want := fmt.Sprintf("truncated event record starting at byte %d", len(bin)-record)
				if ce.Offset != c.badOffset || !strings.Contains(batchErr.Error(), want) {
					t.Errorf("batch end = %v (offset %d), want %q at offset %d", batchErr, ce.Offset, want, c.badOffset)
				}
			}
			if !IsIncomplete(tailErr) {
				t.Fatalf("tail end = %v, want ErrIncomplete", tailErr)
			}
			if opened := !strings.Contains(tailErr.Error(), "header"); opened != c.tailOpened {
				t.Errorf("tail end = %v, want an incomplete header: %v", tailErr, !c.tailOpened)
			}
			if len(tail) != c.tail {
				t.Errorf("tail decoded %d events, want %d", len(tail), c.tail)
			}
			for i := 0; i < len(batch) && i < len(tail); i++ {
				if batch[i] != tail[i] || batch[i] != tr.Events[i] {
					t.Errorf("event %d: batch %+v, tail %+v, want %+v", i, batch[i], tail[i], tr.Events[i])
				}
			}
		})
	}
}

// TestTruncatedGzipIsAnError: a .bin.gz or .csv.gz whose compressed stream
// is cut short — in the header, at an event boundary, mid-event, just
// before the gzip trailer, or right after the 10-byte gzip header — fails
// from OpenFile or Next. It does not end cleanly, and it does not repeat
// an event. Each cut falls on a deflate sync point, so the decompressor
// hands over exactly the raw bytes before the cut and then reports
// io.ErrUnexpectedEOF.
func TestTruncatedGzipIsAnError(t *testing.T) {
	tr := sampleTrace()
	csv := encodeTrace(t, tr, FormatCSV)
	bin := encodeTrace(t, tr, FormatBinary)
	const record = 18 // each sampleTrace record: two 1-byte varints and two f64s
	binHeader := len(bin) - len(tr.Events)*record
	csvHeader := bytes.Index(csv, []byte("event,"))
	for _, f := range []struct {
		file   string
		raw    []byte
		header int
	}{{"t.bin.gz", bin, binHeader}, {"t.csv.gz", csv, csvHeader}} {
		for name, cut := range map[string]int{
			"in-header":      f.header / 2,
			"after-header":   f.header,
			"mid-event":      f.header + 5,
			"before-trailer": len(f.raw),
		} {
			t.Run(f.file+"/"+name, func(t *testing.T) {
				var gz bytes.Buffer
				w := gzip.NewWriter(&gz)
				if _, err := w.Write(f.raw[:cut]); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				checkTruncated(t, f.file, gz.Bytes(), len(tr.Events))
			})
		}
		t.Run(f.file+"/gzip-header-only", func(t *testing.T) {
			var gz bytes.Buffer
			w := gzip.NewWriter(&gz)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			checkTruncated(t, f.file, gz.Bytes()[:10], 0)
		})
	}
}

// checkTruncated writes data to a file named name and asserts that
// OpenFile or a later Next fails within maxEvents decoded events, then
// that ReadFile fails too. The bounded Next loop runs first, so a reader
// that repeats an event fails the test instead of filling memory.
func checkTruncated(t *testing.T, name string, data []byte, maxEvents int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := OpenFile(path); err == nil {
		var ev trace.Event
		for n := 0; err == nil; n++ {
			if n > maxEvents {
				r.Close()
				t.Fatalf("Next decoded more than %d events", maxEvents)
			}
			err = r.Next(&ev)
		}
		r.Close()
		if err == io.EOF {
			t.Fatal("Next = io.EOF; want an error")
		}
	}
	if tr, err := ReadFile(path); err == nil {
		t.Errorf("ReadFile = %d events, nil error; want an error", len(tr.Events))
	}
}
