package eventstore

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"ocelotl/internal/failpoint"
)

// FailpointOpen and FailpointRead name the fault-injection sites of the
// disk index: the head of every store open, and every chunk read that
// misses the decoded-chunk cache. The chaos soak arms them to prove the
// serving layer survives disk faults mid-window-build.
const (
	FailpointOpen = "eventstore/open"
	FailpointRead = "eventstore/read"
)

// DefaultChunkCacheBytes budgets the decoded-chunk cache per store when
// Options.ChunkCacheBytes is 0: enough to keep a hot window's chunks
// resident across repeated fills, small next to any Input-cache budget.
const DefaultChunkCacheBytes = 32 << 20

// Options tunes a store (builder and reader sides share the type; zero
// values mean defaults).
type Options struct {
	// TargetChunkEvents caps events per chunk (default
	// DefaultTargetChunkEvents). Smaller chunks seek tighter windows;
	// larger chunks amortize directory and CRC overhead.
	TargetChunkEvents int
	// SortBufferEvents bounds the events the builder holds in RAM
	// (default DefaultSortBufferEvents, at most math.MaxInt32): 28 bytes
	// each, the record plus its place in the order table. Each full
	// buffer is ordered — in one pass for series that arrived in start
	// order — and spills to disk as a run; the runs merge back stably.
	SortBufferEvents int
	// ChunkCacheBytes budgets the reader's decoded-chunk cache (default
	// DefaultChunkCacheBytes; negative disables caching).
	ChunkCacheBytes int64
	// RemoveOnClose deletes the store file when the Store closes —
	// the mode for stores built as load-time temporaries rather than
	// reusable sidecars.
	RemoveOnClose bool
}

// ReadStats are a store's monotonic read counters: how many chunk
// payloads were fetched and decoded from disk (ChunksRead / BytesRead)
// versus served from the decoded cache (CacheHits). Window-locality
// assertions ("a 1-slice pan touches O(window) chunks") are written
// against deltas of these.
type ReadStats struct {
	ChunksRead int64
	BytesRead  int64
	CacheHits  int64
}

// decodedChunk is one chunk expanded to struct-of-arrays form, the shape
// the fill loop consumes.
type decodedChunk struct {
	starts, ends []float64
	states       []int32
	bytes        int // resident cost, charged against ChunkCacheBytes
}

// seriesView indexes one series' chunks for window pruning: refs ordered
// by minStart (the global chunk order restricted to the series), plus
// the running maximum of maxEnd — nondecreasing, so the chunks possibly
// overlapping a window are one binary search on each side, exactly the
// running-max-end trick the in-RAM index uses at event granularity.
type seriesView struct {
	refs      []int // indices into Store.dir
	minStarts []float64
	cumMaxEnd []float64
}

// Store is an open on-disk event index. All methods are safe for
// concurrent use: reads go through pread, the decoded-chunk cache is
// mutex-guarded, and counters are atomic.
type Store struct {
	path string
	f    *os.File
	dir  []chunkRef
	meta Meta
	opt  Options

	series []seriesView

	mu         sync.Mutex
	cache      map[int]*list.Element // chunk index → *cacheEntry
	lru        *list.List
	cacheBytes int64

	chunksRead atomic.Int64
	bytesRead  atomic.Int64
	cacheHits  atomic.Int64

	closed atomic.Bool
}

type cacheEntry struct {
	chunk int
	dec   *decodedChunk
}

// Open maps an existing store file: header magic and version are
// validated, the directory and meta are read and checksummed, and the
// per-series chunk views are built. Corruption anywhere in that path —
// truncation, version skew, a failed checksum — returns an
// IsCorrupt-classifiable error.
func Open(path string, opt Options) (*Store, error) {
	if err := failpoint.Inject(FailpointOpen); err != nil {
		return nil, fmt.Errorf("eventstore: %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openFile(path, f, opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openFile(path string, f *os.File, opt Options) (*Store, error) {
	corrupt := func(off int64, format string, args ...any) error {
		return &CorruptError{Path: path, Offset: off, Err: fmt.Errorf(format, args...)}
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize+footerSize {
		return nil, corrupt(size, "file too short (%d bytes) for a store", size)
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, corrupt(0, "header: %v", err)
	}
	if string(hdr[:4]) != storeMagic {
		return nil, corrupt(0, "bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != storeVersion {
		return nil, corrupt(4, "unsupported store version %d (want %d)", v, storeVersion)
	}
	var ftr [footerSize]byte
	if _, err := f.ReadAt(ftr[:], size-footerSize); err != nil {
		return nil, corrupt(size-footerSize, "footer: %v", err)
	}
	if string(ftr[28:32]) != footerMagic {
		return nil, corrupt(size-4, "bad footer magic %q (truncated store?)", ftr[28:32])
	}
	dirOff := binary.LittleEndian.Uint64(ftr[0:])
	dirBytes := binary.LittleEndian.Uint64(ftr[8:])
	metaBytes := binary.LittleEndian.Uint64(ftr[16:])
	wantCRC := binary.LittleEndian.Uint32(ftr[24:])
	// Bounding each field by the file size first keeps the tiling sum
	// from wrapping, so no allocation below exceeds the file.
	if dirOff < headerSize || dirOff > uint64(size) || dirBytes > uint64(size) || metaBytes > uint64(size) ||
		dirOff+dirBytes+metaBytes+footerSize != uint64(size) {
		return nil, corrupt(size-footerSize, "footer geometry off=%d dir=%d meta=%d does not tile the %d-byte file",
			dirOff, dirBytes, metaBytes, size)
	}
	if dirBytes%chunkRefSize != 0 {
		return nil, corrupt(int64(dirOff), "directory length %d not a whole number of %d-byte entries", dirBytes, chunkRefSize)
	}
	tail := make([]byte, dirBytes+metaBytes)
	if _, err := f.ReadAt(tail, int64(dirOff)); err != nil {
		return nil, corrupt(int64(dirOff), "directory: %v", err)
	}
	if got := crc32.ChecksumIEEE(tail); got != wantCRC {
		return nil, corrupt(int64(dirOff), "directory+meta checksum mismatch: file says %08x, data hashes to %08x", wantCRC, got)
	}
	dir := make([]chunkRef, dirBytes/chunkRefSize)
	for i := range dir {
		dir[i] = unmarshalChunkRef(tail[i*chunkRefSize:])
		if c := dir[i]; c.off < headerSize || c.off > dirOff || c.length > dirOff-c.off {
			return nil, corrupt(int64(dirOff)+int64(i*chunkRefSize), "chunk %d extends past the directory", i)
		}
	}
	meta, err := parseMeta(tail[dirBytes:])
	if err != nil {
		return nil, corrupt(int64(dirOff)+int64(dirBytes), "meta: %v", err)
	}
	if opt.ChunkCacheBytes == 0 {
		opt.ChunkCacheBytes = DefaultChunkCacheBytes
	}
	s := &Store{
		path:  path,
		f:     f,
		dir:   dir,
		meta:  meta,
		opt:   opt,
		cache: make(map[int]*list.Element),
		lru:   list.New(),
	}
	s.buildSeriesViews()
	return s, nil
}

func (s *Store) buildSeriesViews() {
	n := len(s.meta.Series)
	s.series = make([]seriesView, n)
	for i, c := range s.dir {
		if int(c.series) >= n {
			// A chunk for a series outside the table would have failed the
			// checksum; guard anyway rather than index out of range.
			continue
		}
		v := &s.series[c.series]
		v.refs = append(v.refs, i)
	}
	for si := range s.series {
		v := &s.series[si]
		v.minStarts = make([]float64, len(v.refs))
		v.cumMaxEnd = make([]float64, len(v.refs))
		running := math.Inf(-1)
		for j, ci := range v.refs {
			v.minStarts[j] = s.dir[ci].minStart
			if s.dir[ci].maxEnd > running {
				running = s.dir[ci].maxEnd
			}
			v.cumMaxEnd[j] = running
		}
	}
}

// Meta returns the store's header data.
func (s *Store) Meta() Meta { return s.meta }

// Path returns the store file's path.
func (s *Store) Path() string { return s.path }

// NumEvents returns the indexed event count.
func (s *Store) NumEvents() int64 { return s.meta.NumEvents }

// NumChunks returns the total chunk count.
func (s *Store) NumChunks() int { return len(s.dir) }

// SeriesChunks returns how many chunks hold series' events.
func (s *Store) SeriesChunks(series uint32) int {
	if int(series) >= len(s.series) {
		return 0
	}
	return len(s.series[series].refs)
}

// DirectoryBytes returns the resident cost of the directory and series
// views — the fixed RAM the open store costs regardless of reads.
func (s *Store) DirectoryBytes() int64 {
	n := int64(len(s.dir)) * chunkRefSize
	for _, v := range s.series {
		n += int64(len(v.refs))*8 + int64(len(v.minStarts))*8 + int64(len(v.cumMaxEnd))*8
	}
	return n
}

// OpenChunkBytes returns the decoded-chunk cache's resident bytes — the
// read-side RAM that grows and shrinks with use, reported distinctly
// from Input bytes so serving-layer budgets don't double-count.
func (s *Store) OpenChunkBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheBytes
}

// ReadStats snapshots the read counters.
func (s *Store) ReadStats() ReadStats {
	return ReadStats{
		ChunksRead: s.chunksRead.Load(),
		BytesRead:  s.bytesRead.Load(),
		CacheHits:  s.cacheHits.Load(),
	}
}

// ForEachOverlapping visits, in ascending (start, insertion-order), every
// stored event of series overlapping the half-open window [lo, hi):
// start < hi and end > lo. Chunk pruning uses the directory only; the
// chunks actually overlapping are decoded (or served from the cache) and
// filtered per event with exactly the in-RAM index's predicates, so a
// fill through this path touches the same events in the same order.
func (s *Store) ForEachOverlapping(series uint32, lo, hi float64, visit func(state int32, start, end float64)) error {
	if int(series) >= len(s.series) {
		return nil
	}
	v := &s.series[series]
	// Chunks with minStart < hi form a prefix (minStarts ascending);
	// chunks with cumMaxEnd > lo form a suffix (cumMaxEnd nondecreasing).
	j1 := sort.SearchFloat64s(v.minStarts, hi)
	j0 := sort.Search(j1, func(j int) bool { return v.cumMaxEnd[j] > lo })
	for j := j0; j < j1; j++ {
		ci := v.refs[j]
		if s.dir[ci].maxEnd <= lo {
			continue // an early long event elsewhere pulled cumMaxEnd up
		}
		dec, err := s.chunk(ci)
		if err != nil {
			return err
		}
		for i := range dec.starts {
			start := dec.starts[i]
			if start >= hi {
				break // sorted by start: nothing later overlaps either
			}
			if dec.ends[i] <= lo {
				continue
			}
			visit(dec.states[i], start, dec.ends[i])
		}
	}
	return nil
}

// chunk returns chunk ci decoded, through the cache.
func (s *Store) chunk(ci int) (*decodedChunk, error) {
	s.mu.Lock()
	if el, ok := s.cache[ci]; ok {
		s.lru.MoveToFront(el)
		dec := el.Value.(*cacheEntry).dec
		s.mu.Unlock()
		s.cacheHits.Add(1)
		return dec, nil
	}
	s.mu.Unlock()

	dec, err := s.readChunk(ci)
	if err != nil {
		return nil, err
	}
	if s.opt.ChunkCacheBytes > 0 {
		s.mu.Lock()
		if _, ok := s.cache[ci]; !ok { // lost races keep the first copy
			s.cache[ci] = s.lru.PushFront(&cacheEntry{chunk: ci, dec: dec})
			s.cacheBytes += int64(dec.bytes)
			for s.cacheBytes > s.opt.ChunkCacheBytes && s.lru.Len() > 1 {
				el := s.lru.Back()
				e := el.Value.(*cacheEntry)
				s.lru.Remove(el)
				delete(s.cache, e.chunk)
				s.cacheBytes -= int64(e.dec.bytes)
			}
		}
		s.mu.Unlock()
	}
	return dec, nil
}

// readChunk fetches and decodes chunk ci from disk, validating its CRC.
func (s *Store) readChunk(ci int) (*decodedChunk, error) {
	if err := failpoint.Inject(FailpointRead); err != nil {
		return nil, fmt.Errorf("eventstore: %s: chunk %d: %w", s.path, ci, err)
	}
	ref := s.dir[ci]
	payload := make([]byte, ref.length)
	if _, err := s.f.ReadAt(payload, int64(ref.off)); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, &CorruptError{Path: s.path, Offset: int64(ref.off),
				Err: fmt.Errorf("chunk %d truncated (%d bytes at %d past EOF)", ci, ref.length, ref.off)}
		}
		return nil, fmt.Errorf("eventstore: %s: chunk %d: %w", s.path, ci, err)
	}
	s.chunksRead.Add(1)
	s.bytesRead.Add(int64(len(payload)))
	if got := crc32.ChecksumIEEE(payload); got != ref.crc {
		return nil, &CorruptError{Path: s.path, Offset: int64(ref.off),
			Err: fmt.Errorf("chunk %d checksum mismatch: directory says %08x, payload hashes to %08x", ci, ref.crc, got)}
	}
	starts, ends, states, err := decodeChunk(payload, int(ref.count), len(s.meta.States))
	if err != nil {
		return nil, &CorruptError{Path: s.path, Offset: int64(ref.off), Err: fmt.Errorf("chunk %d: %w", ci, err)}
	}
	return &decodedChunk{
		starts: starts,
		ends:   ends,
		states: states,
		bytes:  len(starts)*16 + len(states)*4,
	}, nil
}

// VerifyChunks re-reads every chunk payload from disk and validates its
// CRC and decode, bypassing the decoded-chunk cache — the scrub pass's
// workhorse. It returns the first corruption found (IsCorrupt-
// classifiable) and the number of chunks verified before it. Reads do
// not populate or consult the cache, so a scrub neither evicts a serving
// store's hot chunks nor gets fooled by them.
func (s *Store) VerifyChunks() (verified int, err error) {
	for ci := range s.dir {
		if _, err := s.readChunk(ci); err != nil {
			return verified, err
		}
		verified++
	}
	return verified, nil
}

// Close releases the store: the file handle closes, the decoded cache
// drops, and — for load-time temporaries (Options.RemoveOnClose) — the
// file is deleted. Reads racing a Close fail with the file's closed
// error; callers sequencing unload against in-flight builds own that
// race (the serving layer maps it to a failed build, not a crash).
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	s.cache = make(map[int]*list.Element)
	s.lru = list.New()
	s.cacheBytes = 0
	s.mu.Unlock()
	err := s.f.Close()
	if s.opt.RemoveOnClose {
		if rmErr := os.Remove(s.path); err == nil && rmErr != nil && !os.IsNotExist(rmErr) {
			err = rmErr
		}
	}
	return err
}
