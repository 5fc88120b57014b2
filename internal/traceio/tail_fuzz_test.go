package traceio

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ocelotl/internal/trace"
)

// fuzzTailDifferential is the shared property both byte-level fuzzers
// check: on arbitrary bytes, the tail reader must (1) never panic,
// (2) decode exactly the events the batch reader decodes before either
// stops, and (3) classify its stop correctly — corruption claimed by the
// tail implies the batch reader rejects the file too. Both readers run
// the same decoders; they may differ only at the end of the file, where
// the batch reader's end is final and the tail's is not (the four cases
// TestEOFRules pins): a final CSV line without '\n' is an event to the
// batch reader and a wait to the tail, and a binary record cut by the end
// of the file is corrupt to the batch reader and a wait to the tail.
// Events compare bit for bit, so NaN times match themselves.
func fuzzTailDifferential(t *testing.T, data []byte, name string) {
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var batchEvents []trace.Event
	var batchErr error
	if r, err := OpenFile(path); err != nil {
		batchErr = err
	} else {
		var ev trace.Event
		for {
			if err := r.Next(&ev); err != nil {
				if err != io.EOF {
					batchErr = err
				}
				break
			}
			batchEvents = append(batchEvents, ev)
		}
		r.Close()
	}

	tail, err := OpenTail(path)
	if err != nil {
		if IsIncomplete(err) || os.IsNotExist(err) {
			return // retryable — nothing further to compare
		}
		// A hard open error (corrupt header, gzip) must not be a file the
		// batch reader accepts in full.
		if batchErr == nil && len(batchEvents) > 0 && !isGzipData(data) {
			t.Fatalf("tail open failed (%v) on a file the batch reader read fully", err)
		}
		return
	}
	defer tail.Close()

	tailEvents, terr := drainTail(tail)
	n := len(tailEvents)
	if len(batchEvents) < n {
		n = len(batchEvents)
	}
	for i := 0; i < n; i++ {
		if !sameEvent(tailEvents[i], batchEvents[i]) {
			t.Fatalf("event %d diverges: tail %+v, batch %+v", i, tailEvents[i], batchEvents[i])
		}
	}
	if IsCorrupt(terr) {
		var ce *CorruptError
		if asCorrupt(terr, &ce) && ce.Offset < -1 {
			t.Fatalf("corrupt error with nonsense offset: %+v", ce)
		}
		if batchErr == nil {
			t.Fatalf("tail reports corruption (%v) on a file the batch reader accepts", terr)
		}
	} else if !IsIncomplete(terr) {
		t.Fatalf("tail terminal error is neither incomplete nor corrupt: %v", terr)
	}
}

// sameEvent compares two events bit for bit.
func sameEvent(a, b trace.Event) bool {
	return a.Resource == b.Resource && a.State == b.State &&
		math.Float64bits(a.Start) == math.Float64bits(b.Start) &&
		math.Float64bits(a.End) == math.Float64bits(b.End)
}

func isGzipData(data []byte) bool {
	return len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
}

// FuzzTailBinary mutates OCLT binary bytes under the tail reader.
func FuzzTailBinary(f *testing.F) {
	tr := fuzzSampleTrace()
	full := encodeTraceBytes(f, tr, FormatBinary)
	f.Add(full)
	f.Add(full[:len(full)-7])
	f.Add(full[:17])
	f.Add([]byte("OCLT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTailDifferential(t, data, "t.bin")
	})
}

// FuzzTailCSV mutates CSV trace bytes under the tail reader.
func FuzzTailCSV(f *testing.F) {
	tr := fuzzSampleTrace()
	full := encodeTraceBytes(f, tr, FormatCSV)
	f.Add(full)
	f.Add(full[:len(full)-5])
	f.Add([]byte("# ocelotl-trace v1\nwindow,0,1\n"))
	f.Add([]byte("event,"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTailDifferential(t, data, "t.csv")
	})
}

// FuzzTailTorn cuts a valid generated trace at an arbitrary byte position
// and follows it: the prefix must read as an exact event prefix with a
// retryable incomplete (never corruption), and appending the remainder
// must complete the stream with no event lost, duplicated or altered.
func FuzzTailTorn(f *testing.F) {
	f.Add(uint8(4), uint16(0), false)
	f.Add(uint8(4), uint16(31), false)
	f.Add(uint8(9), uint16(77), true)
	f.Add(uint8(1), uint16(9999), true)
	f.Add(uint8(0), uint16(12), false)
	f.Fuzz(func(t *testing.T, nEv uint8, cut uint16, useCSV bool) {
		format := FormatBinary
		name := "t.bin"
		if useCSV {
			format, name = FormatCSV, "t.csv"
		}
		tr := trace.New([]string{"A/a0", "A/a1", "B/b0"}, []string{"run", "wait"})
		tr.Start, tr.End = 0, 10
		for i := 0; i < int(nEv); i++ {
			s := float64(i) * 10 / float64(nEv)
			tr.Add(trace.ResourceID(i%3), trace.StateID(i%2), s, s+0.5)
		}
		full := encodeTraceBytes(t, tr, format)
		pos := int(cut) % (len(full) + 1)

		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, full[:pos], 0o644); err != nil {
			t.Fatal(err)
		}
		var head []trace.Event
		tail, err := OpenTail(path)
		if err != nil {
			if !IsIncomplete(err) {
				t.Fatalf("cut %d/%d: OpenTail on a valid prefix: %v", pos, len(full), err)
			}
		} else {
			defer tail.Close()
			var terr error
			head, terr = drainTail(tail)
			if !IsIncomplete(terr) {
				t.Fatalf("cut %d/%d: torn tail error = %v, want incomplete", pos, len(full), terr)
			}
		}

		fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(full[pos:]); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		if tail == nil {
			if tail, err = OpenTail(path); err != nil {
				// A zero-event CSV trace never proves its header complete
				// (the first event line is the only completeness signal) —
				// permanently retryable by design.
				if IsIncomplete(err) && len(tr.Events) == 0 {
					return
				}
				t.Fatalf("cut %d/%d: OpenTail after completing: %v", pos, len(full), err)
			}
			defer tail.Close()
		}
		rest, terr := drainTail(tail)
		if !IsIncomplete(terr) {
			t.Fatalf("cut %d/%d: completed tail error = %v, want incomplete", pos, len(full), terr)
		}
		got := append(head, rest...)
		if len(got) != len(tr.Events) {
			t.Fatalf("cut %d/%d: got %d events, want %d", pos, len(full), len(got), len(tr.Events))
		}
		for i := range got {
			if got[i] != tr.Events[i] {
				t.Fatalf("cut %d/%d: event %d mismatch: %+v != %+v", pos, len(full), i, got[i], tr.Events[i])
			}
		}
	})
}

// fuzzSampleTrace is sampleTrace, duplicated so fuzz seeds stay stable
// even if the shared test fixture evolves.
func fuzzSampleTrace() *trace.Trace {
	tr := trace.New([]string{"A/a0", "A/a1", "B/b0"}, []string{"run", "wait"})
	tr.Start, tr.End = 0, 10
	tr.Add(0, 0, 0, 2.5)
	tr.Add(1, 1, 0.25, 9.75)
	tr.Add(2, 0, 3, 4)
	tr.Add(2, 1, 4, 10)
	return tr
}

// encodeTraceBytes is encodeTrace for both *testing.T and *testing.F.
func encodeTraceBytes(tb testing.TB, tr *trace.Trace, format Format) []byte {
	tb.Helper()
	var buf writerBuffer
	start, end := tr.Window()
	w, err := NewWriter(&buf, format, Header{Resources: tr.Resources, States: tr.States, Start: start, End: end})
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := w.WriteEvent(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.b
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// TestWriteTailFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/ when OCELOTL_WRITE_CORPUS=1 — run it after changing the
// trace formats so CI's fuzz smoke starts from valid-looking inputs.
func TestWriteTailFuzzCorpus(t *testing.T) {
	if os.Getenv("OCELOTL_WRITE_CORPUS") == "" {
		t.Skip("set OCELOTL_WRITE_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	tr := fuzzSampleTrace()
	write := func(fuzzName, fileName, body string) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fileName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bin := encodeTraceBytes(t, tr, FormatBinary)
	csv := encodeTraceBytes(t, tr, FormatCSV)
	write("FuzzTailBinary", "valid", fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bin))
	write("FuzzTailBinary", "torn", fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bin[:len(bin)-9]))
	write("FuzzTailBinary", "flipped", fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", flipByte(bin, len(bin)-20)))
	write("FuzzTailCSV", "valid", fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", csv))
	write("FuzzTailCSV", "torn", fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", csv[:len(csv)-4]))
	write("FuzzTailCSV", "flipped", fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", flipByte(csv, len(csv)-10)))
	write("FuzzTailTorn", "bin-mid-record", "go test fuzz v1\nbyte(13)\nuint16(61)\nbool(false)\n")
	write("FuzzTailTorn", "csv-mid-line", "go test fuzz v1\nbyte(13)\nuint16(61)\nbool(true)\n")
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	if i >= 0 && i < len(out) {
		out[i] ^= 0xff
	}
	return out
}
