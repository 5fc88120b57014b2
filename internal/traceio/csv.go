package traceio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ocelotl/internal/trace"
)

// The CSV trace format, line-oriented in the spirit of Paje's self-defined
// text traces:
//
//	# ocelotl-trace v1
//	window,0,9.5
//	resource,0,rennes/parapide/parapide-1/p0
//	state,0,MPI_Init
//	event,<resource>,<state>,<start>,<end>
//
// Header lines (window/resource/state) must precede event lines; blank
// lines and lines starting with '#' are ignored. Resource and state IDs
// must be dense, starting at 0, in increasing order.
const csvHeaderLine = "# ocelotl-trace v1"

type csvWriter struct {
	w   *bufio.Writer
	buf []byte
}

func newCSVWriter(w io.Writer, hdr Header) (*csvWriter, error) {
	cw := &csvWriter{w: bufio.NewWriterSize(w, 1<<20)}
	fmt.Fprintln(cw.w, csvHeaderLine)
	fmt.Fprintf(cw.w, "window,%s,%s\n", formatFloat(hdr.Start), formatFloat(hdr.End))
	for i, r := range hdr.Resources {
		fmt.Fprintf(cw.w, "resource,%d,%s\n", i, r)
	}
	for i, s := range hdr.States {
		fmt.Fprintf(cw.w, "state,%d,%s\n", i, s)
	}
	return cw, nil
}

func (cw *csvWriter) WriteEvent(e trace.Event) error {
	b := cw.buf[:0]
	b = append(b, "event,"...)
	b = strconv.AppendInt(b, int64(e.Resource), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.State), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, e.Start, 'g', 17, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, e.End, 'g', 17, 64)
	b = append(b, '\n')
	cw.buf = b
	_, err := cw.w.Write(b)
	return err
}

func (cw *csvWriter) Close() error { return cw.w.Flush() }

// Flush pushes buffered lines down to the underlying writer so a live
// reader can see them mid-stream.
func (cw *csvWriter) Flush() error { return cw.w.Flush() }

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', 17, 64) }

// csvLine returns buf's first line, trimmed, and the bytes it spans with
// its '\n'. A line without '\n' is complete only atEOF; one of maxLine
// bytes or more is corrupt, reported as line lineNo.
func csvLine(buf []byte, atEOF bool, lineNo int) (string, int, error) {
	i := bytes.IndexByte(buf, '\n')
	n := i + 1
	if i < 0 {
		i, n = len(buf), len(buf)
		if i < maxLine && (!atEOF || i == 0) {
			return "", 0, errNeedMore
		}
	}
	if i >= maxLine {
		return "", 0, corruptLine(lineNo, "line longer than %d bytes", maxLine)
	}
	return strings.TrimSpace(string(buf[:i])), n, nil
}

// csvHeader decodes one header line. The header ends at the first event
// line, which it leaves for csvEvent, or — only at the end of a batch
// stream, a header-only trace — at the last line.
func (r *records) csvHeader(buf []byte, atEOF bool) (int, error) {
	lineNo := r.line + 1
	line, n, err := csvLine(buf, atEOF, lineNo)
	if err == errNeedMore && atEOF {
		if len(r.resources) == 0 || len(r.states) == 0 {
			return 0, corruptLine(r.line, "missing resource/state declarations")
		}
		r.header = nil
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	corrupt := func(format string, args ...any) (int, error) {
		return 0, corruptLine(lineNo, format, args...)
	}
	kind, rest, _ := strings.Cut(line, ",")
	switch {
	case line == "" || line[0] == '#':
	case kind == "window":
		a, b, ok := strings.Cut(rest, ",")
		if !ok {
			return corrupt("malformed window line")
		}
		if r.start, err = strconv.ParseFloat(a, 64); err != nil {
			return corrupt("bad window start: %v", err)
		}
		if r.end, err = strconv.ParseFloat(b, 64); err != nil {
			return corrupt("bad window end: %v", err)
		}
	case kind == "resource" || kind == "state":
		table := &r.resources
		if kind == "state" {
			table = &r.states
		}
		idStr, name, ok := strings.Cut(rest, ",")
		if !ok {
			return corrupt("malformed %s line", kind)
		}
		if id, err := strconv.Atoi(idStr); err != nil || id != len(*table) {
			return corrupt("%s IDs must be dense and increasing (got %q, want %d)", kind, idStr, len(*table))
		}
		*table = append(*table, name)
	case kind == "event":
		if len(r.resources) == 0 || len(r.states) == 0 {
			return corrupt("event line before resource/state declarations")
		}
		r.header = nil
		return 0, nil
	default:
		return corrupt("unknown line kind %q", kind)
	}
	r.line = lineNo
	return n, nil
}

// csvEvent decodes one event line. Blank and comment lines are consumed
// together with the event line that follows them, so the committed offset
// always lands on a line boundary.
func (r *records) csvEvent(buf []byte, atEOF bool) (int, error) {
	pos, lineNo := 0, r.line
	for {
		line, n, err := csvLine(buf[pos:], atEOF, lineNo+1)
		if err != nil {
			return 0, err
		}
		lineNo++
		pos += n
		if line == "" || line[0] == '#' {
			continue
		}
		if err := parseCSVEventLine(line, len(r.resources), len(r.states), &r.ev); err != nil {
			return 0, corruptLine(lineNo, "%w", err)
		}
		r.line = lineNo
		return pos, nil
	}
}

// parseCSVEventLine decodes one "event,res,st,start,end" line against the
// table sizes; csvEvent adds the line number.
func parseCSVEventLine(line string, numResources, numStates int, ev *trace.Event) error {
	kind, rest, _ := strings.Cut(line, ",")
	if kind != "event" {
		return fmt.Errorf("unexpected %q line in event section", kind)
	}
	if n := strings.Count(rest, ",") + 1; n != 4 {
		return fmt.Errorf("event needs 4 fields, got %d", n)
	}
	resStr, rest, _ := strings.Cut(rest, ",")
	stStr, rest, _ := strings.Cut(rest, ",")
	startStr, endStr, _ := strings.Cut(rest, ",")
	res, err := strconv.Atoi(resStr)
	if err != nil {
		return fmt.Errorf("bad resource: %v", err)
	}
	st, err := strconv.Atoi(stStr)
	if err != nil {
		return fmt.Errorf("bad state: %v", err)
	}
	start, err := strconv.ParseFloat(startStr, 64)
	if err != nil {
		return fmt.Errorf("bad start: %v", err)
	}
	end, err := strconv.ParseFloat(endStr, 64)
	if err != nil {
		return fmt.Errorf("bad end: %v", err)
	}
	if res < 0 || res >= numResources {
		return fmt.Errorf("resource %d out of range [0,%d)", res, numResources)
	}
	if st < 0 || st >= numStates {
		return fmt.Errorf("state %d out of range [0,%d)", st, numStates)
	}
	ev.Resource = trace.ResourceID(res)
	ev.State = trace.StateID(st)
	ev.Start, ev.End = start, end
	if !ev.Valid() {
		return fmt.Errorf("malformed times [%v, %v)", start, end)
	}
	return nil
}
