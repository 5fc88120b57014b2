package eventstore

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The OCES store file, little-endian throughout:
//
//	header   "OCES" + u32 version (1)
//	chunks   delta-encoded event blocks, written (series asc, start asc)
//	directory one fixed 44-byte record per chunk (see chunkRef)
//	meta     series/state tables, window, event count
//	footer   fixed 32 bytes at EOF:
//	           u64 directory offset, u64 directory bytes, u64 meta bytes,
//	           u32 CRC-32 (IEEE) of directory+meta, "OCEF"
//
// Within a chunk each event encodes as three uvarints:
//
//	state | startBits XOR prevStartBits | endBits XOR startBits
//
// Events are sorted by start, so consecutive starts share their sign,
// exponent and high mantissa bits: the XOR is small and the varint
// short (~6 bytes/event on NAS-PB traces vs 20 in the in-RAM index).
// The directory carries each chunk's series, event count, byte extent,
// minimum start, maximum end and payload CRC — enough to prune to the
// chunks overlapping a window without touching their payloads, and to
// fail loud on a flipped byte when one is read.
const (
	storeMagic   = "OCES"
	footerMagic  = "OCEF"
	storeVersion = 1
	headerSize   = 8  // magic + version
	footerSize   = 32 // dirOff + dirBytes + metaBytes + crc + magic
	chunkRefSize = 44 // series + count + off + len + minStart + maxEnd + crc
)

// chunkRef is one directory entry: where a chunk sits in the file and
// what it covers, so window fills prune without reading payloads.
type chunkRef struct {
	series   uint32
	count    uint32
	off      uint64
	length   uint64
	minStart float64
	maxEnd   float64
	crc      uint32
}

func (c chunkRef) marshal(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], c.series)
	binary.LittleEndian.PutUint32(b[4:], c.count)
	binary.LittleEndian.PutUint64(b[8:], c.off)
	binary.LittleEndian.PutUint64(b[16:], c.length)
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(c.minStart))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(c.maxEnd))
	binary.LittleEndian.PutUint32(b[40:], c.crc)
}

func unmarshalChunkRef(b []byte) chunkRef {
	return chunkRef{
		series:   binary.LittleEndian.Uint32(b[0:]),
		count:    binary.LittleEndian.Uint32(b[4:]),
		off:      binary.LittleEndian.Uint64(b[8:]),
		length:   binary.LittleEndian.Uint64(b[16:]),
		minStart: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		maxEnd:   math.Float64frombits(binary.LittleEndian.Uint64(b[32:])),
		crc:      binary.LittleEndian.Uint32(b[40:]),
	}
}

// Meta is the store's self-describing header data: the series and state
// tables (for event stores built from traces, series are hierarchy-leaf
// resource paths), the observation window, and the indexed event count.
// A Reslicer can be reconstructed from an open store and its Meta alone.
type Meta struct {
	Series     []string
	States     []string
	Start, End float64
	NumEvents  int64
}

// appendMeta serializes m: u32-counted (u16 length + bytes) string
// tables, two f64s, one u64.
func appendMeta(b []byte, m Meta) ([]byte, error) {
	var err error
	if b, err = appendStrings(b, m.Series); err != nil {
		return nil, err
	}
	if b, err = appendStrings(b, m.States); err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Start))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.End))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.NumEvents))
	return b, nil
}

func appendStrings(b []byte, ss []string) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		if len(s) > math.MaxUint16 {
			return nil, fmt.Errorf("eventstore: name longer than 64KiB")
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return b, nil
}

// parseMeta is the inverse of appendMeta; errors name what failed so the
// store's corrupt wrapper can position them.
func parseMeta(b []byte) (Meta, error) {
	var m Meta
	var err error
	if m.Series, b, err = parseStrings(b, "series"); err != nil {
		return m, err
	}
	if m.States, b, err = parseStrings(b, "states"); err != nil {
		return m, err
	}
	if len(b) < 24 {
		return m, fmt.Errorf("meta window truncated")
	}
	m.Start = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
	m.End = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	m.NumEvents = int64(binary.LittleEndian.Uint64(b[16:]))
	return m, nil
}

func parseStrings(b []byte, what string) ([]string, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%s table truncated", what)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)/2) { // each entry takes at least its 2-byte length
		return nil, nil, fmt.Errorf("implausible %s count %d for %d bytes", what, n, len(b))
	}
	out := make([]string, n)
	for i := range out {
		if len(b) < 2 {
			return nil, nil, fmt.Errorf("%s table truncated", what)
		}
		l := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < l {
			return nil, nil, fmt.Errorf("%s table truncated", what)
		}
		out[i] = string(b[:l])
		b = b[l:]
	}
	return out, b, nil
}

// appendEvent delta-encodes one event onto b and returns the new slice
// plus the start bits to chain the next delta from.
func appendEvent(b []byte, state int32, startBits, prevStartBits, endBits uint64) []byte {
	b = binary.AppendUvarint(b, uint64(uint32(state)))
	b = binary.AppendUvarint(b, startBits^prevStartBits)
	b = binary.AppendUvarint(b, endBits^startBits)
	return b
}

// decodeChunk expands a chunk payload into struct-of-arrays form. count
// comes from the (checksummed) directory but is still checked against the
// payload — each event takes at least three bytes — before anything is
// allocated; payload short-reads and states outside the numStates-entry
// table are decode errors.
func decodeChunk(payload []byte, count, numStates int) (starts, ends []float64, states []int32, err error) {
	if count < 0 || count > len(payload)/3 {
		return nil, nil, nil, fmt.Errorf("%d events cannot fit in %d payload bytes", count, len(payload))
	}
	starts = make([]float64, count)
	ends = make([]float64, count)
	states = make([]int32, count)
	var prevStart uint64
	for i := 0; i < count; i++ {
		st, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("event %d: bad state varint", i)
		}
		if st >= uint64(numStates) {
			return nil, nil, nil, fmt.Errorf("event %d: state %d outside the %d-state table", i, st, numStates)
		}
		payload = payload[n:]
		ds, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("event %d: bad start varint", i)
		}
		payload = payload[n:]
		de, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("event %d: bad end varint", i)
		}
		payload = payload[n:]
		startBits := ds ^ prevStart
		prevStart = startBits
		starts[i] = math.Float64frombits(startBits)
		ends[i] = math.Float64frombits(startBits ^ de)
		states[i] = int32(uint32(st))
	}
	if len(payload) != 0 {
		return nil, nil, nil, fmt.Errorf("%d trailing bytes after %d events", len(payload), count)
	}
	return starts, ends, states, nil
}
