package eventstore

import (
	"bufio"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Builder tuning defaults. 4K events per chunk keeps a 1-slice pan to a
// handful of chunk decodes; a 1M-event sort buffer (24 MiB of records
// plus a 4 MiB order table) bounds build RAM regardless of trace size.
const (
	DefaultTargetChunkEvents = 4096
	DefaultSortBufferEvents  = 1 << 20
)

// maxSortBufferEvents caps Options.SortBufferEvents so a buffer position
// fits the builder's uint32 order table.
const maxSortBufferEvents = math.MaxInt32

// record is the builder's fixed 24-byte spill format: series, state,
// start bits, end bits, little-endian. Runs of sorted records merge back
// without any per-record allocation.
const recordSize = 24

type record struct {
	series uint32
	state  int32
	start  float64
	end    float64
}

func (r record) marshal(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], r.series)
	binary.LittleEndian.PutUint32(b[4:], uint32(r.state))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.start))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.end))
}

func unmarshalRecord(b []byte) record {
	return record{
		series: binary.LittleEndian.Uint32(b[0:]),
		state:  int32(binary.LittleEndian.Uint32(b[4:])),
		start:  math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		end:    math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
	}
}

// Builder streams events into a store file in bounded memory. Events
// arrive in any order; Add buffers up to Options.SortBufferEvents, each
// overflow spills one stably-sorted run beside the output file, and
// Finish merges the runs and the last buffer, sorted in place as the
// newest run (k-way, ties broken by run order), into (series asc, start
// asc, arrival order) chunks. The merge order is byte-for-byte the order
// a global stable sort of the whole event sequence would give — the
// invariant the bit-identity contract with the in-RAM index rests on.
//
// A buffer is put in order in linear time when its series arrive in
// start order, as a time-ordered trace's do: Add counts each series'
// buffered events and notes whether its starts are still non-decreasing,
// a spill scatters buffer positions into per-series buckets (a stable
// counting sort by series) and stable-sorts by start only the buckets
// that arrived out of order.
type Builder struct {
	path string
	meta Meta
	opt  Options

	buf    []record
	series []bucket   // per meta.Series entry: its share of buf
	order  []uint32   // spill scratch: buf positions in (series, start) order
	runs   []*os.File // spilled sorted runs, in spill order
	n      int64      // events added
	tmp    string     // in-flight output temp, renamed to path on success

	finished bool
}

// bucket tracks one series' buffered events: how many, the last start
// added, and whether a start ever fell below its predecessor's.
type bucket struct {
	n         int
	last      float64
	unordered bool
}

// Create starts building a store at path. The directory containing path
// also hosts the temporary spill runs, so spills live on the same
// filesystem as the result. meta.NumEvents is ignored; the builder
// counts.
func Create(path string, meta Meta, opt Options) (*Builder, error) {
	if opt.TargetChunkEvents <= 0 {
		opt.TargetChunkEvents = DefaultTargetChunkEvents
	}
	if opt.SortBufferEvents <= 0 {
		opt.SortBufferEvents = DefaultSortBufferEvents
	}
	opt.SortBufferEvents = min(opt.SortBufferEvents, maxSortBufferEvents)
	return &Builder{path: path, meta: meta, opt: opt, series: make([]bucket, len(meta.Series))}, nil
}

// Add buffers one event, spilling a sorted run if the buffer is full.
// The event must name a series and a state of the store's tables and
// span a finite, non-inverted interval (end ≥ start, the rule of
// trace.Event.Valid): a store skips the chunks of a series it has no name
// for, fails the reads of a chunk holding a state it has no name for, and
// NaN has no place in the start order.
func (b *Builder) Add(series uint32, state int32, start, end float64) error {
	if int64(series) >= int64(len(b.series)) {
		return fmt.Errorf("eventstore: add: series %d outside the %d-series table", series, len(b.series))
	}
	if state < 0 || int64(state) >= int64(len(b.meta.States)) {
		return fmt.Errorf("eventstore: add: series %d state %d outside the %d-state table", series, state, len(b.meta.States))
	}
	if !(end >= start && start >= -math.MaxFloat64 && end <= math.MaxFloat64) {
		return fmt.Errorf("eventstore: add: series %d event [%g, %g) is not a finite, non-inverted interval", series, start, end)
	}
	bk := &b.series[series]
	if bk.n > 0 && start < bk.last {
		bk.unordered = true
	}
	bk.n++
	bk.last = start
	if len(b.buf) == cap(b.buf) {
		// Double up to the buffer bound: append's 1.25× steps would copy
		// a filling buffer several times over.
		b.buf = slices.Grow(b.buf, min(max(len(b.buf), 256), b.opt.SortBufferEvents-len(b.buf)))
	}
	b.buf = append(b.buf, record{series: series, state: state, start: start, end: end})
	b.n++
	if len(b.buf) >= b.opt.SortBufferEvents {
		return b.spill()
	}
	return nil
}

// sortBuf returns the buffer positions stably ordered by (series,
// start): ties keep arrival order, as the in-RAM index's leaf sort
// does. It resets the per-series buckets for the next buffer.
func (b *Builder) sortBuf() []uint32 {
	if cap(b.order) < len(b.buf) {
		b.order = make([]uint32, len(b.buf))
	}
	order := b.order[:len(b.buf)]
	// Scatter buffer positions into per-series buckets, each in arrival
	// order (a stable counting sort by series): a bucket's n becomes its
	// start offset, then advances to its end.
	start := 0
	for s := range b.series {
		start, b.series[s].n = start+b.series[s].n, start
	}
	for i, r := range b.buf {
		bk := &b.series[r.series]
		order[bk.n] = uint32(i)
		bk.n++
	}
	// Add admits no NaN, so cmp.Compare is the `<` order: ±0 tie.
	lo := 0
	for _, bk := range b.series {
		if bk.unordered {
			slices.SortStableFunc(order[lo:bk.n], func(x, y uint32) int {
				return cmp.Compare(b.buf[x].start, b.buf[y].start)
			})
		}
		lo = bk.n
	}
	clear(b.series)
	return order
}

func (b *Builder) spill() error {
	order := b.sortBuf()
	f, err := os.CreateTemp(filepath.Dir(b.path), ".oces-run-*")
	if err != nil {
		return fmt.Errorf("eventstore: spill run: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var rec [recordSize]byte
	for _, i := range order {
		b.buf[i].marshal(rec[:])
		if _, err := w.Write(rec[:]); err != nil {
			f.Close()
			os.Remove(f.Name())
			return fmt.Errorf("eventstore: spill run: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("eventstore: spill run: %w", err)
	}
	b.buf = b.buf[:0]
	b.runs = append(b.runs, f)
	return nil
}

// Abort discards the build: spill runs are removed and nothing is
// written at path.
func (b *Builder) Abort() {
	if b.finished {
		return
	}
	b.finished = true
	for _, f := range b.runs {
		f.Close()
		os.Remove(f.Name())
	}
	b.runs = nil
	b.buf = nil
	b.order = nil
}

// Finish sorts/merges everything added, writes the store file and opens
// it for reading. The freshly written file goes through the same
// validating Open as any other store, so a Finish that returns nil error
// hands back a store whose checksums have been verified once already.
func (b *Builder) Finish() (*Store, error) {
	if b.finished {
		return nil, fmt.Errorf("eventstore: Finish on finished builder")
	}
	b.finished = true
	defer func() {
		for _, f := range b.runs {
			f.Close()
			os.Remove(f.Name())
		}
		b.runs = nil
	}()

	// The store is built in a temp file beside its final path and only
	// renamed into place after an fsync, so a crash mid-build leaves a
	// `.oces-build-*` temp (swept at startup), never a torn store under
	// the published name that the next boot would trust.
	b.meta.NumEvents = b.n
	out, err := os.CreateTemp(filepath.Dir(b.path), ".oces-build-*")
	if err != nil {
		return nil, err
	}
	b.tmp = out.Name()
	cw := &chunkedWriter{
		w:   bufio.NewWriterSize(out, 1<<18),
		opt: b.opt,
	}
	var hdr [headerSize]byte
	copy(hdr[:4], storeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], storeVersion)
	if _, err := cw.w.Write(hdr[:]); err != nil {
		return nil, b.fail(out, err)
	}
	cw.off = headerSize

	// The last buffer, ordered in place, merges as the newest run, so its
	// ties resolve after every spilled run's; with nothing spilled it is
	// the only run.
	if err := mergeRuns(b.runs, b.buf, b.sortBuf(), cw.add); err != nil {
		return nil, b.fail(out, err)
	}
	b.buf, b.order = nil, nil
	if err := cw.flushChunk(); err != nil {
		return nil, b.fail(out, err)
	}

	dirOff := cw.off
	dirBuf := make([]byte, len(cw.dir)*chunkRefSize)
	for i, c := range cw.dir {
		c.marshal(dirBuf[i*chunkRefSize:])
	}
	metaBuf, err := appendMeta(nil, b.meta)
	if err != nil {
		return nil, b.fail(out, err)
	}
	if _, err := cw.w.Write(dirBuf); err != nil {
		return nil, b.fail(out, err)
	}
	if _, err := cw.w.Write(metaBuf); err != nil {
		return nil, b.fail(out, err)
	}
	crc := crc32.ChecksumIEEE(dirBuf)
	crc = crc32.Update(crc, crc32.IEEETable, metaBuf)
	var ftr [footerSize]byte
	binary.LittleEndian.PutUint64(ftr[0:], dirOff)
	binary.LittleEndian.PutUint64(ftr[8:], uint64(len(dirBuf)))
	binary.LittleEndian.PutUint64(ftr[16:], uint64(len(metaBuf)))
	binary.LittleEndian.PutUint32(ftr[24:], crc)
	copy(ftr[28:], footerMagic)
	if _, err := cw.w.Write(ftr[:]); err != nil {
		return nil, b.fail(out, err)
	}
	if err := cw.w.Flush(); err != nil {
		return nil, b.fail(out, err)
	}
	if err := out.Sync(); err != nil {
		return nil, b.fail(out, err)
	}
	if err := out.Close(); err != nil {
		os.Remove(b.tmp)
		return nil, err
	}
	if err := os.Rename(b.tmp, b.path); err != nil {
		os.Remove(b.tmp)
		return nil, fmt.Errorf("eventstore: publish %s: %w", b.path, err)
	}
	if err := syncDir(filepath.Dir(b.path)); err != nil {
		os.Remove(b.path)
		return nil, err
	}
	s, err := Open(b.path, b.opt)
	if err != nil {
		os.Remove(b.path)
		return nil, err
	}
	return s, nil
}

func (b *Builder) fail(out *os.File, err error) error {
	out.Close()
	os.Remove(b.tmp)
	if _, ok := err.(*CorruptError); ok {
		return err
	}
	return fmt.Errorf("eventstore: write %s: %w", b.path, err)
}

// syncDir fsyncs the directory so the rename that published the store is
// itself durable — without it a crash after Finish can forget the file.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("eventstore: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("eventstore: sync dir %s: %w", dir, err)
	}
	return nil
}

// chunkedWriter packs the sorted event stream into chunks: a chunk holds
// one series and at most TargetChunkEvents events, delta-encoded against
// the previous start within the chunk (each chunk restarts the delta
// chain, so chunks decode independently).
type chunkedWriter struct {
	w   *bufio.Writer
	opt Options
	off uint64
	dir []chunkRef

	payload   []byte
	series    uint32
	count     int
	minStart  float64
	maxEnd    float64
	prevStart uint64
	open      bool
}

func (cw *chunkedWriter) add(r record) error {
	if cw.open && (r.series != cw.series || cw.count >= cw.opt.TargetChunkEvents) {
		if err := cw.flushChunk(); err != nil {
			return err
		}
	}
	startBits := math.Float64bits(r.start)
	if !cw.open {
		cw.open = true
		cw.series = r.series
		cw.count = 0
		cw.minStart = r.start
		cw.maxEnd = math.Inf(-1)
		cw.prevStart = 0
		cw.payload = cw.payload[:0]
	}
	cw.payload = appendEvent(cw.payload, r.state, startBits, cw.prevStart, math.Float64bits(r.end))
	cw.prevStart = startBits
	if r.end > cw.maxEnd {
		cw.maxEnd = r.end
	}
	cw.count++
	return nil
}

func (cw *chunkedWriter) flushChunk() error {
	if !cw.open {
		return nil
	}
	cw.open = false
	ref := chunkRef{
		series:   cw.series,
		count:    uint32(cw.count),
		off:      cw.off,
		length:   uint64(len(cw.payload)),
		minStart: cw.minStart,
		maxEnd:   cw.maxEnd,
		crc:      crc32.ChecksumIEEE(cw.payload),
	}
	if _, err := cw.w.Write(cw.payload); err != nil {
		return err
	}
	cw.off += uint64(len(cw.payload))
	cw.dir = append(cw.dir, ref)
	return nil
}

// runHead is one sorted run's cursor in the k-way merge: a spill file
// read through r or, when r is nil, the last buffer read in place in its
// sort order.
type runHead struct {
	r     *bufio.Reader
	buf   []record
	order []uint32 // the buffer positions still to gather
	ahead []record // the buffer's next records, gathered in order
	pos   int      // the next record of ahead
	rec   record
	idx   int // run order; ties resolve to the earliest run
	raw   [recordSize]byte
}

// gatherRecords is how many of the last buffer's records the merge
// gathers at a time. Their positions are scattered over the buffer, and
// one tight gather loop overlaps the cache misses that one read per merge
// step would take one by one.
const gatherRecords = 4096

type runHeap []*runHead

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.rec.series != b.rec.series {
		return a.rec.series < b.rec.series
	}
	if a.rec.start != b.rec.start {
		return a.rec.start < b.rec.start
	}
	return a.idx < b.idx
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runHead)) }
func (h *runHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h *runHead) next() (bool, error) {
	if h.r == nil {
		if h.pos == len(h.ahead) {
			if len(h.order) == 0 {
				return false, nil
			}
			h.ahead = h.ahead[:min(len(h.order), cap(h.ahead))]
			for i := range h.ahead {
				h.ahead[i] = h.buf[h.order[i]]
			}
			h.order, h.pos = h.order[len(h.ahead):], 0
		}
		h.rec = h.ahead[h.pos]
		h.pos++
		return true, nil
	}
	if _, err := io.ReadFull(h.r, h.raw[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, err
	}
	h.rec = unmarshalRecord(h.raw[:])
	return true, nil
}

// mergeRuns streams the stably-merged union of the sorted spill runs and
// the last buffer (buf in order's sequence, the newest run) to emit.
// Because each run is internally stable and ties across runs resolve to
// the earliest run, the merged order equals a stable sort of the
// original arrival sequence. Once one run is left it is drained without
// heap work, so a build that never spilled streams its buffer straight
// through.
func mergeRuns(runs []*os.File, buf []record, order []uint32, emit func(record) error) error {
	h := make(runHeap, 0, len(runs)+1)
	push := func(rh *runHead) error {
		ok, err := rh.next()
		if ok {
			h = append(h, rh)
		}
		return err
	}
	for i, f := range runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if err := push(&runHead{r: bufio.NewReaderSize(f, 1<<16), idx: i}); err != nil {
			return err
		}
	}
	ahead := make([]record, 0, min(len(order), gatherRecords))
	if err := push(&runHead{buf: buf, order: order, ahead: ahead, idx: len(runs)}); err != nil {
		return err
	}
	heap.Init(&h)
	for len(h) > 0 {
		rh := h[0]
		if err := emit(rh.rec); err != nil {
			return err
		}
		ok, err := rh.next()
		switch {
		case err != nil:
			return err
		case !ok:
			heap.Pop(&h)
		case len(h) > 1:
			heap.Fix(&h, 0)
		}
	}
	return nil
}
