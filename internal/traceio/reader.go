package traceio

import (
	"errors"
	"fmt"
	"io"

	"ocelotl/internal/trace"
)

// records is the one buffered record reader behind both the batch Reader
// (NewReader, OpenFile) and the TailReader (OpenTail, OpenTailAt). Each
// format contributes one header decoder and one event decoder, slice
// functions in the bufio.SplitFunc style: given the buffered bytes and
// whether the byte source is exhausted, they return how many bytes the
// decoded record spans, errNeedMore when the bytes end mid-record, or a
// CorruptError. The reader owns the buffer, the committed offset and the
// refill loop; the two readers differ only in their byte source.
type records struct {
	// read fills p with the bytes at stream offset at. A batch source
	// ends with io.EOF, which is final; a tail source ends with
	// ErrIncomplete, which is not.
	read    func(p []byte, at int64) (int, error)
	closers []io.Closer

	mem    []byte // mem[lo:hi] is read but not yet decoded
	lo, hi int
	off    int64 // stream offset of mem[lo]: the committed offset
	line   int   // CSV lines consumed (relative to a tail's resume point)
	eof    bool  // the batch source is exhausted

	format     Format
	header     decoder // nil once the header is complete
	event      decoder
	resources  []string
	states     []string
	start, end float64
	ev         trace.Event // the event decoder's output
}

// decoder decodes one record from the head of buf, returning the bytes it
// spans. atEOF reports that no byte will ever follow buf: a decoder then
// decodes a final record it would otherwise wait on (a CSV line without
// '\n') or calls a partial one corrupt. errNeedMore with atEOF marks a
// clean end of stream.
type decoder func(buf []byte, atEOF bool) (int, error)

// errNeedMore is the decoders' signal that buf ends mid-record (or holds
// no record at all). It never escapes the package.
var errNeedMore = errors.New("traceio: need more data")

// errGzip rejects a gzip stream where only raw trace bytes can be decoded.
var errGzip = errors.New("gzip-compressed stream; open it with OpenFile")

// bufSize is the read size and the buffer's starting capacity; the buffer
// grows only for a header or CSV line longer than what it holds.
const bufSize = 64 << 10

// maxLine caps a CSV line, '\n' excluded. A longer line is corrupt: the
// cap bounds the buffer a reader may hold for a line that never ends.
const maxLine = 1 << 20

// newRecords reads the header through read and returns the reader
// positioned at the first event. If the header fails it closes closers.
func newRecords(read func([]byte, int64) (int, error), closers ...io.Closer) (*records, error) {
	r := &records{read: read, closers: closers, mem: make([]byte, bufSize)}
	r.header = r.sniff
	for r.header != nil {
		if err := r.decode(r.header); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// sniff picks the format from the first bytes and hands over to that
// format's header decoder.
func (r *records) sniff(buf []byte, atEOF bool) (int, error) {
	if len(buf) >= 2 && buf[0] == 0x1f && buf[1] == 0x8b {
		return 0, errGzip
	}
	if len(buf) < len(binaryMagic) {
		if atEOF {
			return 0, fmt.Errorf("traceio: stream too short: %w", io.ErrUnexpectedEOF)
		}
		return 0, errNeedMore
	}
	if string(buf[:len(binaryMagic)]) == binaryMagic {
		r.format, r.header, r.event = FormatBinary, r.binaryHeader, r.binaryEvent
	} else {
		r.format, r.header, r.event = FormatCSV, r.csvHeader, r.csvEvent
	}
	return 0, nil
}

// decode runs dec over the buffered bytes, refilling from the source until
// dec decodes a record or fails. At the end of a batch source it gives dec
// one last call with atEOF set and turns a remaining errNeedMore into
// io.EOF; a tail source's end surfaces as ErrIncomplete.
func (r *records) decode(dec decoder) error {
	for {
		n, err := dec(r.mem[r.lo:r.hi], r.eof)
		if err == nil {
			r.lo += n
			r.off += int64(n)
			return nil
		}
		if err != errNeedMore {
			return err
		}
		if r.eof {
			return io.EOF
		}
		got, err := r.fill()
		switch {
		case got > 0:
		case err == io.EOF:
			r.eof = true
		case err == nil:
			return io.ErrNoProgress
		default:
			return r.sourceErr(err)
		}
	}
}

// sourceErr passes on a byte source's failure. A compressed stream cut
// short (io.ErrUnexpectedEOF from the decompressor) leaves the trace
// truncated: corrupt at the end of the bytes read so far.
func (r *records) sourceErr(err error) error {
	switch {
	case err != io.ErrUnexpectedEOF:
		return err
	case r.event == nil:
		return fmt.Errorf("traceio: stream too short: %w", err)
	case r.format == FormatBinary:
		return corruptAt(r.off+int64(r.hi-r.lo), "truncated stream: %w", err)
	default:
		return corruptLine(r.line+1, "truncated stream: %w", err)
	}
}

// fill moves the undecoded bytes to the front of the buffer, grows it if
// they fill it, and reads more behind them.
func (r *records) fill() (int, error) {
	if r.lo > 0 {
		r.hi = copy(r.mem, r.mem[r.lo:r.hi])
		r.lo = 0
	}
	if r.hi == len(r.mem) {
		r.mem = append(r.mem, make([]byte, len(r.mem))...)
	}
	n, err := r.read(r.mem[r.hi:], r.off+int64(r.hi))
	r.hi += n
	return n, err
}

// corruptAt reports undecodable binary bytes at offset.
func corruptAt(offset int64, format string, args ...any) error {
	return &CorruptError{Format: FormatBinary, Offset: offset, Err: fmt.Errorf(format, args...)}
}

// corruptLine reports an undecodable CSV line.
func corruptLine(line int, format string, args ...any) error {
	return &CorruptError{Format: FormatCSV, Offset: -1, Line: line, Err: fmt.Errorf(format, args...)}
}

// Resources returns the header's resource table.
func (r *records) Resources() []string { return r.resources }

// States returns the header's state table.
func (r *records) States() []string { return r.states }

// Window returns the header's declared window.
func (r *records) Window() (start, end float64) { return r.start, r.end }

// Format reports the detected encoding.
func (r *records) Format() Format { return r.format }

// Offset returns the committed byte offset: the position just past the
// last record Next decoded (or past the header if none yet).
func (r *records) Offset() int64 { return r.off }

// Next decodes the next event.
func (r *records) Next(ev *trace.Event) error {
	if err := r.decode(r.event); err != nil {
		return err
	}
	*ev = r.ev
	return nil
}

// Close releases the byte source, innermost layer last.
func (r *records) Close() error {
	var err error
	for i := len(r.closers) - 1; i >= 0; i-- {
		if e := r.closers[i].Close(); err == nil {
			err = e
		}
	}
	return err
}
