package traceio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ocelotl/internal/trace"
)

// The binary OCLT format, little-endian throughout:
//
//	magic   "OCLT"
//	u32     version (1)
//	f64     window start, f64 window end
//	u32     resource count, then per resource: u16 length + UTF-8 bytes
//	u32     state count, same encoding
//	events  until EOF, each:
//	          uvarint resource, uvarint state, f64 start, f64 end
//
// Varint IDs keep small ranks at 1–2 bytes; a typical event is ~18 bytes
// versus ~60 in CSV.
const (
	binaryMagic   = "OCLT"
	binaryVersion = 1
)

type binaryWriter struct {
	w   *bufio.Writer
	buf [2*binary.MaxVarintLen64 + 16]byte
}

func newBinaryWriter(w io.Writer, hdr Header) (*binaryWriter, error) {
	bw := &binaryWriter{w: bufio.NewWriterSize(w, 1<<20)}
	if _, err := bw.w.WriteString(binaryMagic); err != nil {
		return nil, err
	}
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		bw.w.Write(b[:])
	}
	writeF64 := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		bw.w.Write(b[:])
	}
	writeStr := func(s string) error {
		if len(s) > math.MaxUint16 {
			return fmt.Errorf("traceio: name longer than 64KiB")
		}
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
		bw.w.Write(b[:])
		bw.w.WriteString(s)
		return nil
	}
	writeU32(binaryVersion)
	writeF64(hdr.Start)
	writeF64(hdr.End)
	writeU32(uint32(len(hdr.Resources)))
	for _, r := range hdr.Resources {
		if err := writeStr(r); err != nil {
			return nil, err
		}
	}
	writeU32(uint32(len(hdr.States)))
	for _, s := range hdr.States {
		if err := writeStr(s); err != nil {
			return nil, err
		}
	}
	return bw, nil
}

func (bw *binaryWriter) WriteEvent(e trace.Event) error {
	if e.Resource < 0 || e.State < 0 {
		return fmt.Errorf("traceio: negative IDs in event %+v", e)
	}
	b := bw.buf[:0]
	b = binary.AppendUvarint(b, uint64(e.Resource))
	b = binary.AppendUvarint(b, uint64(e.State))
	var f [8]byte
	binary.LittleEndian.PutUint64(f[:], math.Float64bits(e.Start))
	b = append(b, f[:]...)
	binary.LittleEndian.PutUint64(f[:], math.Float64bits(e.End))
	b = append(b, f[:]...)
	_, err := bw.w.Write(b)
	return err
}

func (bw *binaryWriter) Close() error { return bw.w.Flush() }

// Flush pushes buffered records down to the underlying writer so a live
// reader can see them mid-stream.
func (bw *binaryWriter) Flush() error { return bw.w.Flush() }

// binaryHeader decodes the OCLT header — magic, version, window and the
// two string tables — once all of it is buffered.
func (r *records) binaryHeader(buf []byte, atEOF bool) (int, error) {
	pos := len(binaryMagic)
	short := func(what string) (int, error) {
		if atEOF {
			return 0, corruptAt(r.off+int64(len(buf)), "%s: %w", what, io.ErrUnexpectedEOF)
		}
		return 0, errNeedMore
	}
	if len(buf) < pos+20 {
		return short("header")
	}
	if v := binary.LittleEndian.Uint32(buf[pos:]); v != binaryVersion {
		return 0, corruptAt(r.off+int64(pos+4), "unsupported version %d", v)
	}
	start := math.Float64frombits(binary.LittleEndian.Uint64(buf[pos+4:]))
	end := math.Float64frombits(binary.LittleEndian.Uint64(buf[pos+12:]))
	pos += 20
	var tables [2][]string
	for i, what := range [2]string{"resources", "states"} {
		if len(buf) < pos+4 {
			return short("header")
		}
		n := binary.LittleEndian.Uint32(buf[pos:])
		pos += 4
		if n > 100_000_000 {
			return 0, corruptAt(r.off+int64(pos), "implausible %s count %d", what, n)
		}
		// Grow incrementally rather than trusting n for the allocation: a
		// corrupt count just under the plausibility cap would otherwise
		// commit gigabytes before the bytes run out.
		names := make([]string, 0, min(n, 4096))
		for ; n > 0; n-- {
			if len(buf) < pos+2 {
				return short(what + " table")
			}
			l := int(binary.LittleEndian.Uint16(buf[pos:]))
			if len(buf) < pos+2+l {
				return short(what + " table")
			}
			names = append(names, string(buf[pos+2:pos+2+l]))
			pos += 2 + l
		}
		tables[i] = names
	}
	r.resources, r.states = tables[0], tables[1]
	r.start, r.end = start, end
	r.header = nil
	return pos, nil
}

// binaryEvent decodes one event record. Running out of bytes is the
// torn-record case (errNeedMore, or corruption at the end of the stream),
// while a non-terminating varint, an out-of-range ID or times that
// trace.Event.Valid rejects (NaN, ±Inf, End < Start) are corruption:
// with MaxVarintLen64 bytes buffered a varint either terminates or
// provably overflows, so the two cannot be confused.
func (r *records) binaryEvent(buf []byte, atEOF bool) (int, error) {
	res, n1 := binary.Uvarint(buf)
	st, n2 := uint64(0), 0
	if n1 > 0 {
		st, n2 = binary.Uvarint(buf[n1:])
	}
	switch {
	case n1 < 0:
		return 0, corruptAt(r.off, "event at byte %d: resource varint overflows 64 bits", r.off)
	case n2 < 0:
		return 0, corruptAt(r.off, "event at byte %d: state varint overflows 64 bits", r.off)
	case n1 == 0 || n2 == 0 || len(buf) < n1+n2+16:
		if atEOF && len(buf) > 0 {
			return 0, corruptAt(r.off+int64(len(buf)), "truncated event record starting at byte %d", r.off)
		}
		return 0, errNeedMore
	case res >= uint64(len(r.resources)):
		return 0, corruptAt(r.off, "event at byte %d references resource %d, table has %d", r.off, res, len(r.resources))
	case st >= uint64(len(r.states)):
		return 0, corruptAt(r.off, "event at byte %d references state %d, table has %d", r.off, st, len(r.states))
	}
	b := buf[n1+n2:]
	r.ev = trace.Event{
		Resource: trace.ResourceID(res),
		State:    trace.StateID(st),
		Start:    math.Float64frombits(binary.LittleEndian.Uint64(b)),
		End:      math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
	if !r.ev.Valid() {
		return 0, corruptAt(r.off, "event at byte %d has malformed times [%v, %v)", r.off, r.ev.Start, r.ev.End)
	}
	return n1 + n2 + 16, nil
}
