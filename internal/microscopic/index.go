package microscopic

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/trace"
)

// eventIndex is the Reslicer's storage backend: per-leaf event sets
// queryable by time window. Two implementations exist — the in-RAM
// struct-of-arrays (ramIndex, the small-trace fast path) and the
// chunked on-disk store (diskIndex, the out-of-core path). The contract
// both uphold is the bit-identity invariant: fill visits exactly the
// events with start < winHi and end > winLo, in ascending
// (start, original stream order), so a model cell accumulates the same
// floats in the same order whichever backend serves it.
type eventIndex interface {
	// fill visits leaf's events overlapping [winLo, winHi).
	fill(leaf int, winLo, winHi float64, visit func(state int32, start, end float64)) error
	numEvents() int64
	// memoryBytes is the backend's fixed resident cost: the full arrays
	// for RAM, the chunk directory for disk.
	memoryBytes() int64
	// openChunkBytes is the disk backend's decoded-chunk cache residency
	// (0 for RAM) — reported separately so serving-layer byte budgets
	// can account it without double-counting Input bytes.
	openChunkBytes() int64
	kind() string
	readStats() eventstore.ReadStats
	// storePath names the sealed on-disk store backing the index ("" for
	// RAM) — what the serving layer journals so a restart can reopen the
	// store in place instead of rebuilding it.
	storePath() string
	// verify re-reads every stored chunk and validates its CRC (the
	// scrub pass); RAM backends have nothing on disk and verify 0 chunks.
	verify() (int, error)
	close() error
	// extend returns an index that additionally holds the events in tmp
	// (per-leaf buckets in stream order), preserving the fill-order
	// invariant as if the new events had been appended to the original
	// stream. The receiver stays valid and unchanged — what it reads is
	// never written again, so concurrent fills on the old index never
	// race (the RAM backend appends in place only past the receiver's
	// lengths, and only on its first extend).
	extend(tmp [][]indexedEvent) (eventIndex, error)
}

// IndexMode selects the Reslicer's index backend.
type IndexMode int

const (
	// IndexAuto picks RAM below IndexOptions.Threshold events and spills
	// to disk above it — the default.
	IndexAuto IndexMode = iota
	// IndexRAM forces the in-RAM struct-of-arrays index.
	IndexRAM
	// IndexDisk forces the chunked on-disk store.
	IndexDisk
)

func (m IndexMode) String() string {
	switch m {
	case IndexAuto:
		return "auto"
	case IndexRAM:
		return "ram"
	case IndexDisk:
		return "disk"
	default:
		return fmt.Sprintf("indexmode(%d)", int(m))
	}
}

// ParseIndexMode parses the -index flag vocabulary: auto, ram, disk.
func ParseIndexMode(s string) (IndexMode, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return IndexAuto, nil
	case "ram":
		return IndexRAM, nil
	case "disk":
		return IndexDisk, nil
	default:
		return IndexAuto, fmt.Errorf("microscopic: unknown index mode %q (want auto, ram or disk)", s)
	}
}

// DefaultDiskIndexThreshold is the IndexAuto cutover: traces up to this
// many events index in RAM (~28 B/event ⇒ ~120 MB at the threshold);
// larger ones spill to the on-disk store mid-load.
const DefaultDiskIndexThreshold = 4 << 20

// IndexOptions configures NewReslicerIndexed.
type IndexOptions struct {
	// Mode selects the backend (default IndexAuto).
	Mode IndexMode
	// Threshold is the IndexAuto RAM→disk cutover in events (default
	// DefaultDiskIndexThreshold).
	Threshold int64
	// Dir hosts the store file and its spill runs for disk-backed
	// indexes (default os.TempDir()). The file is a load-time temporary,
	// removed when the Reslicer closes — unless KeepStore is set.
	Dir string
	// KeepStore makes the store file a durable sidecar instead of a
	// load-time temporary: Close keeps it on disk, so a restarted daemon
	// can reopen it in place (OpenReslicerStore) instead of rebuilding
	// the index from the trace.
	KeepStore bool
	// Store tunes the on-disk store (chunk size, sort buffer, chunk
	// cache budget); zero values mean the eventstore defaults.
	Store eventstore.Options
}

// ramIndex is the in-RAM backend: per-leaf struct-of-arrays sorted by
// start, with the running-max-end column for interval queries. ~28 bytes
// per event resident, up to about twice that while extends append.
type ramIndex struct {
	leaves []ramLeaf
	// extended is set by the first extend of this index, which alone may
	// append into the leaves' spare capacity (see extend).
	extended atomic.Bool
}

// ramLeaf is one leaf's events sorted by (start, stream order), as
// parallel arrays.
type ramLeaf struct {
	start, end []float64
	state      []int32
	// maxEnd[i] = max(end[0..i]) — nondecreasing, so the set of events
	// possibly overlapping a window is one binary search on each side
	// of the sorted-by-start array.
	maxEnd []float64
}

// newRAMLeaf returns an empty leaf with room for n events.
func newRAMLeaf(n int) ramLeaf {
	return ramLeaf{
		start:  make([]float64, 0, n),
		end:    make([]float64, 0, n),
		state:  make([]int32, 0, n),
		maxEnd: make([]float64, 0, n),
	}
}

// push appends e, which must not start before the leaf's last event,
// carrying the running max end forward.
func (l *ramLeaf) push(e indexedEvent) {
	l.start = append(l.start, e.start)
	l.end = append(l.end, e.end)
	l.state = append(l.state, e.state)
	l.maxEnd = append(l.maxEnd, runningMaxEnd(l.maxEnd, e.end))
}

// runningMaxEnd is the maxEnd entry of an event ending at end that
// follows the events whose entries are maxEnd.
func runningMaxEnd(maxEnd []float64, end float64) float64 {
	if n := len(maxEnd); n > 0 && !(end > maxEnd[n-1]) {
		return maxEnd[n-1]
	}
	return end
}

// clipped returns l with its capacity cut to its length, so an append to
// the result copies instead of writing into l's spare capacity.
func (l ramLeaf) clipped() ramLeaf {
	return ramLeaf{
		start:  l.start[:len(l.start):len(l.start)],
		end:    l.end[:len(l.end):len(l.end)],
		state:  l.state[:len(l.state):len(l.state)],
		maxEnd: l.maxEnd[:len(l.maxEnd):len(l.maxEnd)],
	}
}

// sortLeaf stably orders one leaf's events by start, ties (±0 included;
// checkEvent admits no NaN) in stream order. A leaf whose events already
// arrived in start order — every leaf of a trace written in time order —
// costs one pass.
func sortLeaf(evs []indexedEvent) {
	for i := 1; i < len(evs); i++ {
		if evs[i].start < evs[i-1].start {
			slices.SortStableFunc(evs, func(a, b indexedEvent) int { return cmp.Compare(a.start, b.start) })
			return
		}
	}
}

// freezeRAM orders each leaf's events by start (sortLeaf) and flattens
// them into a ramIndex with the running-max-end column: how a disk
// backend's first extend freezes its RAM overlay. (A load freezes its
// leaves with freezeColumns.)
func freezeRAM(tmp [][]indexedEvent) *ramIndex {
	ix := &ramIndex{leaves: make([]ramLeaf, len(tmp))}
	for s, evs := range tmp {
		ix.leaves[s] = freezeLeaf(evs)
	}
	return ix
}

// freezeLeaf orders one leaf's events by start (sortLeaf) and flattens
// them into an exact-size ramLeaf.
func freezeLeaf(evs []indexedEvent) ramLeaf {
	sortLeaf(evs)
	l := newRAMLeaf(len(evs))
	for _, e := range evs {
		l.push(e)
	}
	return l
}

func (ix *ramIndex) fill(leaf int, winLo, winHi float64, visit func(state int32, start, end float64)) error {
	l := ix.leaves[leaf]
	// Candidates overlapping [winLo, winHi): start < winHi (prefix of
	// the sorted array) and end > winLo (suffix of the nondecreasing
	// running max).
	i1 := sort.SearchFloat64s(l.start, winHi)
	i0 := sort.Search(i1, func(i int) bool { return l.maxEnd[i] > winLo })
	for i := i0; i < i1; i++ {
		if l.end[i] <= winLo {
			continue
		}
		visit(l.state[i], l.start[i], l.end[i])
	}
	return nil
}

func (ix *ramIndex) numEvents() int64 {
	var n int64
	for _, l := range ix.leaves {
		n += int64(len(l.start))
	}
	return n
}

func (ix *ramIndex) memoryBytes() int64 {
	// 8 (start) + 8 (end) + 4 (state) + 8 (maxEnd) per allocated slot:
	// capacity, not length, so the spare room in-place extends grow
	// into is counted too.
	var n int64
	for _, l := range ix.leaves {
		n += 8*int64(cap(l.start)+cap(l.end)+cap(l.maxEnd)) + 4*int64(cap(l.state))
	}
	return n
}

func (ix *ramIndex) openChunkBytes() int64           { return 0 }
func (ix *ramIndex) kind() string                    { return "ram" }
func (ix *ramIndex) readStats() eventstore.ReadStats { return eventstore.ReadStats{} }
func (ix *ramIndex) storePath() string               { return "" }
func (ix *ramIndex) verify() (int, error)            { return 0, nil }
func (ix *ramIndex) close() error                    { return nil }

// diskIndex adapts an eventstore.Store: series numbers are hierarchy
// leaf indices, so fill maps straight through.
type diskIndex struct {
	store *eventstore.Store
}

func (ix *diskIndex) fill(leaf int, winLo, winHi float64, visit func(state int32, start, end float64)) error {
	return ix.store.ForEachOverlapping(uint32(leaf), winLo, winHi, visit)
}

func (ix *diskIndex) numEvents() int64                { return ix.store.NumEvents() }
func (ix *diskIndex) memoryBytes() int64              { return ix.store.DirectoryBytes() }
func (ix *diskIndex) openChunkBytes() int64           { return ix.store.OpenChunkBytes() }
func (ix *diskIndex) kind() string                    { return "disk" }
func (ix *diskIndex) readStats() eventstore.ReadStats { return ix.store.ReadStats() }
func (ix *diskIndex) storePath() string               { return ix.store.Path() }
func (ix *diskIndex) verify() (int, error)            { return ix.store.VerifyChunks() }
func (ix *diskIndex) close() error                    { return ix.store.Close() }

// TraceSource adapts an in-memory trace to the EventSource interface, so
// callers holding a *trace.Trace (generators, tests, the CLI's -case
// path) can reach the indexed constructors and force a disk backend.
func TraceSource(tr *trace.Trace) EventSource { return &memSource{tr: tr} }

type memSource struct {
	tr *trace.Trace
	i  int
}

func (s *memSource) Resources() []string        { return s.tr.Resources }
func (s *memSource) States() []string           { return s.tr.States }
func (s *memSource) Window() (float64, float64) { return s.tr.Window() }
func (s *memSource) Next(ev *trace.Event) error {
	if s.i >= len(s.tr.Events) {
		return io.EOF
	}
	*ev = s.tr.Events[s.i]
	s.i++
	return nil
}

// NewReslicerIndexed indexes a streaming source with an explicit backend
// choice. IndexAuto streams once: events buffer in RAM up to the
// threshold, and a trace that overflows it switches to the disk builder
// mid-stream (the buffer drains into the builder; the stream is never
// re-read). The returned Reslicer must be Closed when disk-backed — the
// store file is a temporary that Close removes.
//
// The source is read to its end on a goroutine of the constructor's own,
// which decodes and validates the next events while the calling
// goroutine indexes the last ones; the source must not be used by anyone
// else until NewReslicerIndexed returns, and it is never read after that,
// on success or on error, so the caller may close it at once. The first
// bad event in stream order decides the error: a read failure wrapped as
// "microscopic: reading events", an event checkEvent rejects, or a store
// builder failure.
func NewReslicerIndexed(src EventSource, opt IndexOptions) (*Reslicer, error) {
	resources := src.Resources()
	h, err := hierarchy.FromPaths(resources)
	if err != nil {
		return nil, err
	}
	start, end := src.Window()
	states := src.States()
	r2leaf, err := leafMap(h, resources)
	if err != nil {
		return nil, err
	}
	if opt.Threshold <= 0 {
		opt.Threshold = DefaultDiskIndexThreshold
	}
	r := emptyReslicer(h, states, start, end)
	r.r2leaf = r2leaf

	var (
		cols    []leafColumns // RAM columns (nil once spilled)
		builder *eventstore.Builder
	)
	// startBuilder opens the store builder and drains the RAM columns
	// into it leaf by leaf, each leaf in stream order.
	startBuilder := func() error {
		b, err := newStoreBuilder(h, r2leaf, resources, states, start, end, opt)
		if err != nil {
			return err
		}
		builder = b
		for leaf := range cols {
			for _, ch := range cols[leaf].chunks {
				for i := range ch.start {
					if err := builder.Add(uint32(leaf), ch.state[i], ch.start[i], ch.end[i]); err != nil {
						builder.Abort()
						return err
					}
				}
			}
		}
		cols = nil
		return nil
	}
	if opt.Mode != IndexDisk {
		cols = make([]leafColumns, h.NumLeaves())
	} else if err := startBuilder(); err != nil {
		return nil, err
	}
	limit := int64(math.MaxInt64) // RAM events before the spill
	if opt.Mode == IndexAuto {
		limit = opt.Threshold
	}

	lr := startLoadReader(src, r2leaf, len(states))
	defer lr.halt()
	var total int64
	for {
		b := <-lr.full
		evs := b.evs[:b.n]
		for len(evs) > 0 && builder == nil {
			e := evs[0]
			evs = evs[1:]
			cols[e.leaf].push(e.start, e.end, e.state)
			if total++; total > limit {
				if err := startBuilder(); err != nil {
					return nil, err
				}
			}
		}
		for _, e := range evs {
			if err := builder.Add(uint32(e.leaf), e.state, e.start, e.end); err != nil {
				builder.Abort()
				return nil, err
			}
		}
		err := b.err
		lr.free <- b
		if err == io.EOF {
			break
		}
		if err != nil {
			if builder != nil {
				builder.Abort()
			}
			return nil, err
		}
	}

	if builder == nil {
		r.idx = freezeColumns(cols)
		return r, nil
	}
	store, err := builder.Finish()
	if err != nil {
		return nil, err
	}
	r.idx = &diskIndex{store: store}
	return r, nil
}

// newStoreBuilder opens a disk-store builder for the source's shape: the
// store's series table is the leaf-ordered resource paths, so series i
// is hierarchy leaf i by construction.
func newStoreBuilder(h *hierarchy.Hierarchy, r2leaf []int, resources, states []string, start, end float64, opt IndexOptions) (*eventstore.Builder, error) {
	leafPaths := make([]string, h.NumLeaves())
	for i, p := range resources {
		leafPaths[r2leaf[i]] = p
	}
	dir := opt.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "ocelotl-index-*.oces")
	if err != nil {
		return nil, fmt.Errorf("microscopic: disk index: %w", err)
	}
	path := f.Name()
	f.Close()
	sopt := opt.Store
	sopt.RemoveOnClose = !opt.KeepStore
	meta := eventstore.Meta{Series: leafPaths, States: states, Start: start, End: end}
	b, err := eventstore.Create(path, meta, sopt)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return b, nil
}

// OpenReslicerStore reopens a sealed store file (built by a previous
// NewReslicerIndexed with KeepStore) as a disk-backed Reslicer, skipping
// the rebuild entirely — the restart fast path. The hierarchy is rebuilt
// from the store's leaf-ordered series table, which round-trips to
// identical leaf numbering (hierarchy.FromPaths inserts children by
// first appearance, and leaf order preserves it); the identity of that
// mapping is checked, so a store written by an incompatible writer fails
// loudly instead of silently renumbering leaves and breaking the
// bit-identity contract.
func OpenReslicerStore(path string, opt IndexOptions) (*Reslicer, error) {
	sopt := opt.Store
	sopt.RemoveOnClose = !opt.KeepStore
	store, err := eventstore.Open(path, sopt)
	if err != nil {
		return nil, err
	}
	meta := store.Meta()
	h, err := hierarchy.FromPaths(meta.Series)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("microscopic: reopen %s: %w", path, err)
	}
	r2leaf, err := leafMap(h, meta.Series)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("microscopic: reopen %s: %w", path, err)
	}
	for i, l := range r2leaf {
		if l != i {
			store.Close()
			return nil, fmt.Errorf("microscopic: reopen %s: series table is not leaf-ordered (series %d is leaf %d) — store written by an incompatible builder", path, i, l)
		}
	}
	r := emptyReslicer(h, meta.States, meta.Start, meta.End)
	r.r2leaf = r2leaf
	r.idx = &diskIndex{store: store}
	return r, nil
}

// checkEvent validates event k (its index in the stream or batch) and
// returns its leaf: the one copy of the acceptance rules, shared by
// BuildStream, the load's reader (NewReslicerIndexed) and Extend
// (indexEvent). The event must be trace.Event.Valid (finite
// times, End ≥ Start, non-negative IDs) and reference the tables' states
// and resources.
func checkEvent(r2leaf []int, numStates, k int, e trace.Event) (int, error) {
	if !e.Valid() {
		return 0, fmt.Errorf("microscopic: event %d is invalid (resource %d, state %d, [%g, %g))", k, e.Resource, e.State, e.Start, e.End)
	}
	if int(e.State) >= numStates {
		return 0, fmt.Errorf("microscopic: event %d references state %d, table has %d", k, e.State, numStates)
	}
	if int(e.Resource) >= len(r2leaf) {
		return 0, fmt.Errorf("microscopic: event %d references resource %d, table has %d", k, e.Resource, len(r2leaf))
	}
	return r2leaf[e.Resource], nil
}
