package eventstore

import (
	"bytes"
	"encoding/binary"
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
