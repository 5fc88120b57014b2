package traceio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ocelotl/internal/trace"
)

// buildValid returns a valid encoded trace in the given format.
func buildValid(t *testing.T, format Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, format, Header{
		Resources: []string{"c/a", "c/b"},
		States:    []string{"x", "y"},
		Start:     0, End: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		w.WriteEvent(trace.Event{
			Resource: trace.ResourceID(i % 2),
			State:    trace.StateID(i % 2),
			Start:    float64(i) * 0.1,
			End:      float64(i)*0.1 + 0.05,
		})
	}
	w.Close()
	return buf.Bytes()
}

// drain reads a stream to EOF or error, returning the error (nil on clean
// EOF). It must never panic, whatever the input.
func drain(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var ev trace.Event
	for {
		if err := r.Next(&ev); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// TestRandomMutationsNeverPanic: flip, truncate and splice the encodings at
// random; decoders must fail cleanly (error or valid decode), never panic,
// and never loop forever.
func TestRandomMutationsNeverPanic(t *testing.T) {
	for _, format := range []Format{FormatCSV, FormatBinary} {
		valid := buildValid(t, format)
		rng := rand.New(rand.NewSource(int64(format) + 1))
		for trial := 0; trial < 300; trial++ {
			data := append([]byte(nil), valid...)
			switch trial % 3 {
			case 0: // flip random bytes
				for k := 0; k < 1+rng.Intn(8); k++ {
					data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
				}
			case 1: // truncate
				data = data[:rng.Intn(len(data))]
			case 2: // splice a random chunk
				at := rng.Intn(len(data))
				junk := make([]byte, rng.Intn(32))
				rng.Read(junk)
				data = append(data[:at:at], append(junk, data[at:]...)...)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v trial %d: panic %v", format, trial, r)
					}
				}()
				_ = drain(data) // error or success are both acceptable
			}()
		}
	}
}

// TestRandomGarbageNeverPanics feeds pure noise to the sniffer.
func TestRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, rng.Intn(512))
		rng.Read(data)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic %v", trial, r)
				}
			}()
			_ = drain(data)
		}()
	}
}

// TestTruncatedBinaryReportsOffset pins the structured error contract: a
// binary stream cut mid-record fails with a CorruptError whose byte
// offset lands inside the severed record, and the message names the byte
// position — IsCorrupt distinguishes it from an I/O failure.
func TestTruncatedBinaryReportsOffset(t *testing.T) {
	valid := buildValid(t, FormatBinary)
	// Each event record of this trace is 18 bytes (two 1-byte varints +
	// two f64s); chopping 5 bytes severs the final record.
	data := valid[:len(valid)-5]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var ev trace.Event
	var lastErr error
	for {
		if err := r.Next(&ev); err != nil {
			if err == io.EOF {
				t.Fatal("truncated stream drained to a clean EOF")
			}
			lastErr = err
			break
		}
	}
	var ce *CorruptError
	if !errors.As(lastErr, &ce) {
		t.Fatalf("truncation error %v (%T) is not a CorruptError", lastErr, lastErr)
	}
	if !IsCorrupt(lastErr) {
		t.Fatalf("IsCorrupt(%v) = false", lastErr)
	}
	if ce.Format != FormatBinary {
		t.Fatalf("CorruptError.Format = %v, want binary", ce.Format)
	}
	if ce.Offset < int64(len(data)-18) || ce.Offset > int64(len(data)) {
		t.Fatalf("CorruptError.Offset = %d, want within the severed record [%d,%d]", ce.Offset, len(data)-18, len(data))
	}
	if !strings.Contains(lastErr.Error(), "byte") {
		t.Fatalf("error %q does not name a byte position", lastErr)
	}
	if ce.Unwrap() == nil {
		t.Fatal("CorruptError does not unwrap to its cause")
	}
}

// TestGarbageCSVLineReportsLineNumber splices an unparseable event line
// into a valid CSV trace at a known position and checks the CorruptError
// carries exactly that 1-based line number.
func TestGarbageCSVLineReportsLineNumber(t *testing.T) {
	valid := buildValid(t, FormatCSV)
	lines := strings.Split(string(valid), "\n")
	const at = 10 // 0-based split index → 1-based line number at+1
	lines = append(lines[:at:at], append([]string{"event,not-a-number,0,0,1"}, lines[at:]...)...)
	err := drain([]byte(strings.Join(lines, "\n")))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("garbage-line error %v (%T) is not a CorruptError", err, err)
	}
	if ce.Format != FormatCSV {
		t.Fatalf("CorruptError.Format = %v, want csv", ce.Format)
	}
	if ce.Line != at+1 {
		t.Fatalf("CorruptError.Line = %d, want %d", ce.Line, at+1)
	}
	if want := fmt.Sprintf("line %d", at+1); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// TestCSVMissingHeaderIsCorrupt: a stream that sniffs as CSV but never
// declares resources/states fails as corruption, not success.
func TestCSVMissingHeaderIsCorrupt(t *testing.T) {
	err := drain([]byte("# ocelotl-trace v1\nwindow,0,10\n"))
	if !IsCorrupt(err) {
		t.Fatalf("header-less CSV returned %v, want a CorruptError", err)
	}
}

// TestMutatedEventsAreRangeChecked: mutations that survive decoding must
// still produce in-range IDs (the readers validate against their tables).
func TestMutatedEventsAreRangeChecked(t *testing.T) {
	valid := buildValid(t, FormatBinary)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), valid...)
		data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			continue
		}
		nRes, nSt := len(r.Resources()), len(r.States())
		var ev trace.Event
		for {
			if err := r.Next(&ev); err != nil {
				break
			}
			if int(ev.Resource) >= nRes || ev.Resource < 0 || int(ev.State) >= nSt || ev.State < 0 {
				t.Fatalf("trial %d: out-of-range event %+v escaped validation", trial, ev)
			}
		}
	}
}

// TestMalformedTimesAreCorrupt: a record whose times trace.Event.Valid
// rejects — NaN, ±Inf, End < Start — is corruption in both formats, at
// the record's byte offset (binary) or line (CSV), not an event. An
// End of +Inf would otherwise count every later slice as busy.
func TestMalformedTimesAreCorrupt(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, format := range []Format{FormatBinary, FormatCSV} {
		for _, bad := range [][2]float64{{1, inf}, {-inf, 1}, {nan, 2}, {1, nan}, {2, 1}} {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, format, Header{Resources: []string{"c/a"}, States: []string{"x"}, Start: 0, End: 10})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				w.WriteEvent(trace.Event{Start: float64(i), End: float64(i) + 0.5})
			}
			if err := Flush(w); err != nil {
				t.Fatal(err)
			}
			at := buf.Len() // the bad record's offset
			line := strings.Count(buf.String(), "\n") + 1
			w.WriteEvent(trace.Event{Start: bad[0], End: bad[1]})
			w.WriteEvent(trace.Event{Start: 4, End: 5})
			w.Close()

			err = drain(buf.Bytes())
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("%v [%v, %v): error %v, want a CorruptError", format, bad[0], bad[1], err)
			}
			if format == FormatBinary && ce.Offset != int64(at) {
				t.Errorf("binary [%v, %v): CorruptError.Offset = %d, want %d", bad[0], bad[1], ce.Offset, at)
			}
			if format == FormatCSV && ce.Line != line {
				t.Errorf("csv [%v, %v): CorruptError.Line = %d, want %d", bad[0], bad[1], ce.Line, line)
			}
		}
	}
}
