package eventstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzChunkDecode throws arbitrary payloads and event counts at
// decodeChunk, as a directory entry that passed its checksum could hand
// them over. It must fail with an error or return exactly count events
// that re-encode to a payload decoding to the same events; it must never
// panic or allocate for more events than the payload can hold.
func FuzzChunkDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, count, numStates int) {
		starts, ends, states, err := decodeChunk(payload, count, numStates)
		if err != nil {
			return
		}
		if len(starts) != count || len(ends) != count || len(states) != count {
			t.Fatalf("decoded %d/%d/%d events, want %d", len(starts), len(ends), len(states), count)
		}
		var re []byte
		var prev uint64
		for i := range starts {
			sb := math.Float64bits(starts[i])
			re = appendEvent(re, states[i], sb, prev, math.Float64bits(ends[i]))
			prev = sb
		}
		s2, e2, x2, err := decodeChunk(re, count, numStates)
		if err != nil {
			t.Fatalf("re-encoded chunk failed to decode: %v", err)
		}
		for i := range starts {
			if math.Float64bits(s2[i]) != math.Float64bits(starts[i]) ||
				math.Float64bits(e2[i]) != math.Float64bits(ends[i]) || x2[i] != states[i] {
				t.Fatalf("event %d changed on re-encode", i)
			}
		}
	})
}

// reseal rewrites the checksums of a mutated store file in place, so
// mutations reach the code behind the CRCs: every directory entry whose
// extent lies in the file gets its payload's CRC, then the footer gets
// the directory+meta CRC. A footer that does not tile the file is left
// alone.
func reseal(data []byte) {
	if len(data) < headerSize+footerSize {
		return
	}
	ftr := data[len(data)-footerSize:]
	dirOff := binary.LittleEndian.Uint64(ftr[0:])
	dirBytes := binary.LittleEndian.Uint64(ftr[8:])
	metaBytes := binary.LittleEndian.Uint64(ftr[16:])
	size := uint64(len(data))
	if dirOff > size || dirBytes > size || metaBytes > size || dirOff+dirBytes+metaBytes+footerSize != size {
		return
	}
	dir := data[dirOff : dirOff+dirBytes]
	for i := 0; i+chunkRefSize <= len(dir); i += chunkRefSize {
		ref := unmarshalChunkRef(dir[i:])
		if ref.off <= dirOff && ref.length <= dirOff-ref.off {
			ref.crc = crc32.ChecksumIEEE(data[ref.off : ref.off+ref.length])
			ref.marshal(dir[i:])
		}
	}
	binary.LittleEndian.PutUint32(ftr[24:], crc32.ChecksumIEEE(data[dirOff:dirOff+dirBytes+metaBytes]))
}

// FuzzStoreOpen opens mutated store files — resealed first when the
// second argument says so — then scrubs every chunk and reads series 0
// in full. Every failure must be an IsCorrupt error, never a panic or an
// allocation beyond the file's size, and every visited event must name
// a state in the store's table.
func FuzzStoreOpen(f *testing.F) {
	// One file per process: the fuzz function runs serially within it.
	path := filepath.Join(f.TempDir(), "fuzz.oces")
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = bytes.Clone(data)
			reseal(data)
		}
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, Options{})
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("Open: non-corrupt error %T: %v", err, err)
			}
			return
		}
		defer s.Close()
		if _, err := s.VerifyChunks(); err != nil && !IsCorrupt(err) {
			t.Fatalf("VerifyChunks: non-corrupt error %T: %v", err, err)
		}
		numStates := len(s.Meta().States)
		err = s.ForEachOverlapping(0, math.Inf(-1), math.Inf(1), func(state int32, start, end float64) {
			if state < 0 || int(state) >= numStates {
				t.Fatalf("visited state %d outside the %d-state table", state, numStates)
			}
		})
		if err != nil && !IsCorrupt(err) {
			t.Fatalf("ForEachOverlapping: non-corrupt error %T: %v", err, err)
		}
	})
}

// FuzzBuilderOrder builds a store from a fuzzed event stream with a small
// sort buffer, so the build spills and merges several runs, and requires
// every series' full read to match the contract order — the stable
// (series, start) sort of the arrival sequence (reference) — field by
// field, bit for bit. Each event takes three bytes: its series (modulo
// the 1–8-entry table, so series may stay empty), a start code (0x80 is
// −0, any other byte its int8 value over 4, so starts tie often) and a
// duration code (low 2 bits the state, the rest the duration in eighths;
// zero duration keeps end = start, −0 included). Streams stop at 128
// events and the buffer holds 2–64, so a 128-event stream always spills.
//
// Every execution writes and fsyncs a store, milliseconds where the other
// targets take microseconds, so fuzz it with a bounded minimization
// (CI passes -fuzzminimizetime 20x): the default 60 s minimization of
// each new input would take the whole fuzz time.
func FuzzBuilderOrder(f *testing.F) {
	path := filepath.Join(f.TempDir(), "order.oces")
	f.Fuzz(func(t *testing.T, data []byte, numSeries, sortBuf, chunk uint8) {
		ns := 1 + uint32(numSeries)%8
		var events []ev
		for i := 0; i+3 <= len(data) && len(events) < 128; i += 3 {
			start := float64(int8(data[i+1])) / 4
			if data[i+1] == 0x80 {
				start = math.Copysign(0, -1)
			}
			end := start
			if d := data[i+2] >> 2; d > 0 {
				end = start + float64(d)/8
			}
			events = append(events, ev{series: uint32(data[i]) % ns, state: int32(data[i+2] & 3), start: start, end: end})
		}
		meta := Meta{States: []string{"a", "b", "c", "d"}}
		for s := uint32(0); s < ns; s++ {
			meta.Series = append(meta.Series, fmt.Sprintf("r%d", s))
		}
		b, err := Create(path, meta, Options{
			SortBufferEvents:  2 + int(sortBuf)%63,
			TargetChunkEvents: 1 + int(chunk)%16,
			RemoveOnClose:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if err := b.Add(e.series, e.state, e.start, e.end); err != nil {
				b.Abort()
				t.Fatalf("Add(%+v): %v", e, err)
			}
		}
		s, err := b.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		defer s.Close()
		if s.NumEvents() != int64(len(events)) {
			t.Fatalf("NumEvents = %d, want %d", s.NumEvents(), len(events))
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		for series := uint32(0); series < ns; series++ {
			got := collect(t, s, series, lo, hi)
			want := reference(events, series, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("series %d: read %d events, want %d", series, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.state != w.state || math.Float64bits(g.start) != math.Float64bits(w.start) ||
					math.Float64bits(g.end) != math.Float64bits(w.end) {
					t.Fatalf("series %d event %d: got %+v, want %+v", series, i, g, w)
				}
			}
		}
	})
}
