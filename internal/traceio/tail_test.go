package traceio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ocelotl/internal/failpoint"
	"ocelotl/internal/testutil"
	"ocelotl/internal/trace"
)

// encodeTrace renders tr in format to a byte slice (header + events).
func encodeTrace(t *testing.T, tr *trace.Trace, format Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	start, end := tr.Window()
	w, err := NewWriter(&buf, format, Header{Resources: tr.Resources, States: tr.States, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainTail reads events until the terminal error.
func drainTail(tail *TailReader) ([]trace.Event, error) {
	var out []trace.Event
	var ev trace.Event
	for {
		if err := tail.Next(&ev); err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

func tailFormats() map[string]Format {
	return map[string]Format{"binary": FormatBinary, "csv": FormatCSV}
}

func extFor(f Format) string {
	if f == FormatBinary {
		return "t.bin"
	}
	return "t.csv"
}

// TestTailReadsCompleteFile: on a finished file, the tail reader yields
// exactly the batch reader's events and then reports a retryable
// incomplete (a finished file is indistinguishable from a paused writer).
func TestTailReadsCompleteFile(t *testing.T) {
	for name, format := range tailFormats() {
		t.Run(name, func(t *testing.T) {
			tr := sampleTrace()
			path := filepath.Join(t.TempDir(), extFor(format))
			if err := os.WriteFile(path, encodeTrace(t, tr, format), 0o644); err != nil {
				t.Fatal(err)
			}
			tail, err := OpenTail(path)
			if err != nil {
				t.Fatalf("OpenTail: %v", err)
			}
			defer tail.Close()
			if got := tail.Format(); got != format {
				t.Errorf("Format = %v, want %v", got, format)
			}
			if s, e := tail.Window(); s != 0 || e != 10 {
				t.Errorf("Window = (%g,%g), want (0,10)", s, e)
			}
			events, err := drainTail(tail)
			if !IsIncomplete(err) {
				t.Fatalf("terminal error = %v, want ErrIncomplete", err)
			}
			if len(events) != len(tr.Events) {
				t.Fatalf("read %d events, want %d", len(events), len(tr.Events))
			}
			for i := range events {
				if events[i] != tr.Events[i] {
					t.Errorf("event %d: %+v != %+v", i, events[i], tr.Events[i])
				}
			}
		})
	}
}

// TestTailFollowsAppends: events flushed after the reader drained the file
// are picked up by later Next calls — the follow loop's core motion.
func TestTailFollowsAppends(t *testing.T) {
	for name, format := range tailFormats() {
		t.Run(name, func(t *testing.T) {
			tr := sampleTrace()
			full := encodeTrace(t, tr, format)
			hdr := encodeTrace(t, &trace.Trace{Resources: tr.Resources, States: tr.States, Start: 0, End: 10}, format)

			path := filepath.Join(t.TempDir(), extFor(format))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(hdr); err != nil {
				t.Fatal(err)
			}

			// A CSV header is only provably complete once the first event
			// line lands, so the open itself may need to wait for data —
			// retry it exactly like a follower would.
			var tail *TailReader
			if tail, err = OpenTail(path); err != nil && !IsIncomplete(err) {
				t.Fatalf("OpenTail: %v", err)
			}
			defer func() {
				if tail != nil {
					tail.Close()
				}
			}()
			if tail != nil {
				if evs, err := drainTail(tail); !IsIncomplete(err) || len(evs) != 0 {
					t.Fatalf("before events: got %d events, err %v", len(evs), err)
				}
			}

			// Append the event section a few bytes at a time, checking the
			// reader never mistakes a torn tail for corruption and ends up
			// with every event exactly once.
			rest := full[len(hdr):]
			var got []trace.Event
			for len(rest) > 0 {
				n := 5
				if n > len(rest) {
					n = len(rest)
				}
				if _, err := f.Write(rest[:n]); err != nil {
					t.Fatal(err)
				}
				rest = rest[n:]
				if tail == nil {
					if tail, err = OpenTail(path); err != nil {
						if IsIncomplete(err) {
							tail = nil
							continue
						}
						t.Fatalf("OpenTail retry: %v", err)
					}
				}
				evs, err := drainTail(tail)
				if !IsIncomplete(err) {
					t.Fatalf("mid-append error = %v, want ErrIncomplete", err)
				}
				got = append(got, evs...)
			}
			if len(got) != len(tr.Events) {
				t.Fatalf("got %d events, want %d", len(got), len(tr.Events))
			}
			for i := range got {
				if got[i] != tr.Events[i] {
					t.Errorf("event %d: %+v != %+v", i, got[i], tr.Events[i])
				}
			}
		})
	}
}

// TestTailHeaderIncomplete: a file cut anywhere inside the header opens
// with a retryable incomplete, never corruption.
func TestTailHeaderIncomplete(t *testing.T) {
	for name, format := range tailFormats() {
		t.Run(name, func(t *testing.T) {
			tr := sampleTrace()
			hdr := encodeTrace(t, &trace.Trace{Resources: tr.Resources, States: tr.States, Start: 0, End: 10}, format)
			for cut := 0; cut < len(hdr); cut++ {
				if format == FormatCSV && cut > 0 && hdr[cut-1] == '\n' && bytes.HasPrefix(hdr[cut:], []byte("event")) {
					continue // header complete at this boundary for CSV
				}
				path := filepath.Join(t.TempDir(), extFor(format))
				if err := os.WriteFile(path, hdr[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := OpenTail(path)
				if err == nil {
					// Complete-at-cut is fine for CSV (header ends before
					// the first event line, which sampleTrace always has).
					continue
				}
				if !IsIncomplete(err) {
					t.Fatalf("cut %d/%d: err = %v, want ErrIncomplete", cut, len(hdr), err)
				}
			}
		})
	}
}

// TestTailCorruption: decodable-but-invalid bytes are a CorruptError (with
// position info), not a retryable incomplete.
func TestTailCorruption(t *testing.T) {
	tr := sampleTrace()
	t.Run("binary-overflowing-varint", func(t *testing.T) {
		full := encodeTrace(t, tr, FormatBinary)
		// Ten 0x80 continuation bytes: a uvarint that provably cannot
		// terminate within 64 bits.
		data := append(append([]byte{}, full...), bytes.Repeat([]byte{0x80}, 12)...)
		path := filepath.Join(t.TempDir(), "t.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tail, err := OpenTail(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		events, err := drainTail(tail)
		if !IsCorrupt(err) {
			t.Fatalf("err = %v, want CorruptError", err)
		}
		var ce *CorruptError
		if asCorrupt(err, &ce); ce.Offset != int64(len(full)) {
			t.Errorf("corrupt offset = %d, want %d", ce.Offset, len(full))
		}
		if len(events) != len(tr.Events) {
			t.Errorf("events before corruption = %d, want %d", len(events), len(tr.Events))
		}
	})
	t.Run("binary-out-of-range-resource", func(t *testing.T) {
		full := encodeTrace(t, tr, FormatBinary)
		// resource 200 (one varint byte 0xC8,0x01), state 0, 16 payload bytes.
		bad := append([]byte{0xC8, 0x01, 0x00}, make([]byte, 16)...)
		data := append(append([]byte{}, full...), bad...)
		path := filepath.Join(t.TempDir(), "t.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tail, err := OpenTail(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		if _, err := drainTail(tail); !IsCorrupt(err) {
			t.Fatalf("err = %v, want CorruptError", err)
		}
	})
	t.Run("csv-malformed-line", func(t *testing.T) {
		full := encodeTrace(t, tr, FormatCSV)
		data := append(append([]byte{}, full...), []byte("event,not-a-number,0,1,2\n")...)
		path := filepath.Join(t.TempDir(), "t.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tail, err := OpenTail(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		events, err := drainTail(tail)
		if !IsCorrupt(err) {
			t.Fatalf("err = %v, want CorruptError", err)
		}
		var ce *CorruptError
		if asCorrupt(err, &ce); ce.Line == 0 {
			t.Errorf("corrupt line not reported: %+v", ce)
		}
		if len(events) != len(tr.Events) {
			t.Errorf("events before corruption = %d, want %d", len(events), len(tr.Events))
		}
	})
}

// TestTailRejectsGzip: compressed traces cannot be followed and say so.
func TestTailRejectsGzip(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "t.bin.gz")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	_, err := OpenTail(path)
	if err == nil || IsIncomplete(err) {
		t.Fatalf("OpenTail(gzip) = %v, want a hard error", err)
	}
}

// TestTailOffsetResume: Offset after N events resumes an OpenTailAt reader
// exactly at event N.
func TestTailOffsetResume(t *testing.T) {
	for name, format := range tailFormats() {
		t.Run(name, func(t *testing.T) {
			tr := sampleTrace()
			path := filepath.Join(t.TempDir(), extFor(format))
			if err := os.WriteFile(path, encodeTrace(t, tr, format), 0o644); err != nil {
				t.Fatal(err)
			}
			tail, err := OpenTail(path)
			if err != nil {
				t.Fatal(err)
			}
			var ev trace.Event
			for i := 0; i < 2; i++ {
				if err := tail.Next(&ev); err != nil {
					t.Fatal(err)
				}
			}
			off := tail.Offset()
			tail.Close()

			resumed, err := OpenTailAt(path, off)
			if err != nil {
				t.Fatalf("OpenTailAt(%d): %v", off, err)
			}
			defer resumed.Close()
			events, err := drainTail(resumed)
			if !IsIncomplete(err) {
				t.Fatalf("terminal error = %v, want ErrIncomplete", err)
			}
			if want := tr.Events[2:]; len(events) != len(want) {
				t.Fatalf("resumed read %d events, want %d", len(events), len(want))
			} else {
				for i := range want {
					if events[i] != want[i] {
						t.Errorf("resumed event %d: %+v != %+v", i, events[i], want[i])
					}
				}
			}

			if _, err := OpenTailAt(path, 1); err == nil {
				t.Error("OpenTailAt inside the header: want error")
			}
			if _, err := OpenTailAt(path, -1); err == nil {
				t.Error("OpenTailAt(-1): want error")
			}
		})
	}
}

// TestTailTornRecords cuts a complete file at every byte position past the
// header: the tail reader must yield an exact prefix of the events with a
// retryable incomplete, and after the remainder is appended, exactly the
// missing suffix — never corruption, never a duplicate or dropped event.
func TestTailTornRecords(t *testing.T) {
	for name, format := range tailFormats() {
		t.Run(name, func(t *testing.T) {
			tr := sampleTrace()
			full := encodeTrace(t, tr, format)
			hdr := encodeTrace(t, &trace.Trace{Resources: tr.Resources, States: tr.States, Start: 0, End: 10}, format)
			dir := t.TempDir()
			for cut := len(hdr); cut <= len(full); cut++ {
				path := filepath.Join(dir, extFor(format))
				if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				var head []trace.Event
				tail, err := OpenTail(path)
				if err != nil {
					// A CSV cut right at the header boundary can leave the
					// header unprovably complete (no event line yet) — a
					// retryable state, not a failure.
					if !IsIncomplete(err) {
						t.Fatalf("cut %d: OpenTail: %v", cut, err)
					}
				} else {
					head, err = drainTail(tail)
					if !IsIncomplete(err) {
						tail.Close()
						t.Fatalf("cut %d: torn tail error = %v, want ErrIncomplete", cut, err)
					}
				}
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(full[cut:]); err != nil {
					t.Fatal(err)
				}
				f.Close()
				if tail == nil {
					if tail, err = OpenTail(path); err != nil {
						t.Fatalf("cut %d: OpenTail after completing: %v", cut, err)
					}
				}
				rest, err := drainTail(tail)
				tail.Close()
				if !IsIncomplete(err) {
					t.Fatalf("cut %d: completed tail error = %v, want ErrIncomplete", cut, err)
				}
				got := append(head, rest...)
				if len(got) != len(tr.Events) {
					t.Fatalf("cut %d: got %d events, want %d", cut, len(got), len(tr.Events))
				}
				for i := range got {
					if got[i] != tr.Events[i] {
						t.Fatalf("cut %d: event %d mismatch: %+v != %+v", cut, i, got[i], tr.Events[i])
					}
				}
			}
		})
	}
}

func asCorrupt(err error, ce **CorruptError) bool { return errors.As(err, ce) }

// openLiveTail writes a complete binary header to a fresh file and opens
// a tail on it; it returns the writer too, for appends. The tail is
// closed at cleanup.
func openLiveTail(t *testing.T) (*TailReader, Writer) {
	t.Helper()
	tr := sampleTrace()
	f, err := os.Create(filepath.Join(t.TempDir(), "t.bin"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	w, err := NewWriter(f, FormatBinary, Header{Resources: tr.Resources, States: tr.States, Start: 0, End: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := Flush(w); err != nil {
		t.Fatal(err)
	}
	tail, err := OpenTail(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tail.Close() })
	return tail, w
}

// TestTailChangedOnAppend: a tail is unwatched until Watch; then an
// append wakes Changed, a burst of flushes wakes it at most once per
// wakeSpacing (plus the first), and Close ends the watch's goroutine.
func TestTailChangedOnAppend(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	tail, w := openLiveTail(t)
	if tail.Changed() != nil {
		t.Fatal("Changed() is set before Watch")
	}
	if err := tail.Watch(); err != nil {
		t.Skipf("file not watched on this system: %v", err)
	}
	wake := tail.Changed()
	if err := tail.Watch(); err != nil || tail.Changed() != wake {
		t.Fatalf("a second Watch: err %v, Changed() %v; want nil and the first watch's %v", err, tail.Changed(), wake)
	}
	select {
	case <-wake:
		t.Fatal("woken before any write")
	case <-time.After(20 * time.Millisecond):
	}

	ev := trace.Event{Resource: 0, State: 1, Start: 1, End: 2}
	appendOne := func() {
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
		if err := Flush(w); err != nil {
			t.Fatal(err)
		}
	}
	appendOne()
	select {
	case <-wake:
	case <-time.After(2 * time.Second):
		t.Fatal("an append did not wake Changed within 2s")
	}
	if evs, err := drainTail(tail); len(evs) != 1 || !IsIncomplete(err) {
		t.Fatalf("after the wake: %d events, err %v; want 1 and ErrIncomplete", len(evs), err)
	}

	// A burst of flushes: count the wakes from its start until the last
	// one it can cause has been delivered.
	time.Sleep(10 * time.Millisecond)
	select {
	case <-wake:
	default:
	}
	const flushes = 1000
	wakes, stop, counted := 0, make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(counted)
		for {
			select {
			case <-wake:
				wakes++
			case <-stop:
				return
			}
		}
	}()
	for i := 0; i < flushes; i++ {
		appendOne()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-counted
	elapsed := time.Since(start)
	if limit := int(elapsed/wakeSpacing) + 1; wakes < 1 || wakes > limit {
		t.Fatalf("%d flushes over %v woke Changed %d times; want 1..%d", flushes, elapsed, wakes, limit)
	}
	t.Logf("%d flushes over %v: %d wakes", flushes, elapsed, wakes)
	if evs, err := drainTail(tail); len(evs) != flushes || !IsIncomplete(err) {
		t.Fatalf("after the burst: %d events, err %v; want %d and ErrIncomplete", len(evs), err, flushes)
	}

	if err := tail.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tail.watch.done:
	default:
		t.Fatal("Close returned with the watch goroutine still running")
	}
}

// TestTailWatchFailpoint: a failed watch set-up returns its error and
// leaves the tail readable and unwatched.
func TestTailWatchFailpoint(t *testing.T) {
	if err := failpoint.Enable(FailpointWatch, "error(no watch)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable(FailpointWatch)
	tail, w := openLiveTail(t)
	if err := tail.Watch(); tail.Changed() != nil || !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Watch() = %v, Changed() = %v; want the injected error and nil", err, tail.Changed())
	}
	if err := w.WriteEvent(trace.Event{Resource: 0, State: 1, Start: 1, End: 2}); err != nil {
		t.Fatal(err)
	}
	if err := Flush(w); err != nil {
		t.Fatal(err)
	}
	if evs, err := drainTail(tail); len(evs) != 1 || !IsIncomplete(err) {
		t.Fatalf("unwatched tail: %d events, err %v; want 1 and ErrIncomplete", len(evs), err)
	}
}
