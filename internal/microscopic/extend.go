package microscopic

import (
	"fmt"
	"math"
	"sort"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/trace"
)

// FailpointExtend names the fault-injection site at the head of every
// Extend — the append half of the live-ingestion path (chaos tests arm it
// together with traceio/tail).
const FailpointExtend = "microscopic/extend"

// Extend returns a Reslicer that additionally indexes events appended to
// the trace, with the observation window grown to newEnd. The receiver is
// untouched — extension is copy-on-write, so snapshots held by in-flight
// queries keep filling from exactly the events they were built over — and
// the two share everything the new events don't touch (the hierarchy, the
// untouched leaves' arrays, the on-disk store).
//
// The fill-order invariant is preserved exactly as if the appended events
// had been part of the original stream: a chain of Extends is
// bit-identical to one NewReslicer over the concatenated events (the
// per-leaf order is a stable merge by start, and stable-sorting a
// concatenation equals stably merging the stably-sorted parts). Events
// may land anywhere in time — ingestion order, not time order, is what
// the invariant keys on — though callers that cache windows will want
// time-ordered appends (see the server's horizon rule).
//
// Extending the newest snapshot costs O(len(events)) for time-ordered
// appends: each leaf whose new events start at or after its last start
// appends them in place, into spare capacity older snapshots never read.
// Extending a stale snapshot (one already extended), or a leaf whose new
// events start before its last start, copies that leaf's arrays instead,
// which costs O(leaf history) — the same result, only slower.
//
// For disk-backed reslicers the appended events live in a RAM overlay on
// top of the sealed store; fills stream-merge the two sides. The overlay
// grows by the same in-place rule. A follow tick's batch is small, so the
// overlay stays a fraction of the store it shadows.
//
// Closing either the receiver or the extension closes the shared backing
// store (disk backend); close at most one of them, when no snapshot is in
// use — the server keeps only the newest snapshot closeable for exactly
// this reason.
func (r *Reslicer) Extend(events []trace.Event, newEnd float64) (*Reslicer, error) {
	if err := failpoint.Inject(FailpointExtend); err != nil {
		return nil, fmt.Errorf("microscopic: extend: %w", err)
	}
	if math.IsNaN(newEnd) || newEnd < r.winEnd {
		return nil, fmt.Errorf("microscopic: extend: new end %g shrinks the window (current end %g)", newEnd, r.winEnd)
	}
	if r.r2leaf == nil {
		return nil, fmt.Errorf("microscopic: extend: reslicer was built without a resource map")
	}
	nr := &Reslicer{
		h:        r.h,
		states:   r.states,
		winStart: r.winStart,
		winEnd:   newEnd,
		r2leaf:   r.r2leaf,
		idx:      r.idx,
	}
	if len(events) == 0 {
		return nr, nil
	}
	tmp := make([][]indexedEvent, r.h.NumLeaves())
	for k, e := range events {
		if err := indexEvent(tmp, r.r2leaf, len(r.states), k, e); err != nil {
			return nil, err
		}
	}
	idx, err := r.idx.extend(tmp)
	if err != nil {
		return nil, err
	}
	nr.idx = idx
	return nr, nil
}

// extend merges the new events into the per-leaf arrays, sharing the
// untouched leaves' slices with the receiver. Each leaf's batch is
// ordered by sortLeaf first — one pass for a time-ordered batch. Existing
// events win start ties (they are earlier in the stream), which is what
// makes the merge a stable one.
//
// The first extend of a snapshot appends in place: a leaf whose sorted
// batch starts at or after its last start grows its existing backing
// arrays, so a tick costs O(batch), not O(history). Older snapshots keep
// their own slice headers and read only up to their own lengths, so they
// never see the appended tail. Every other leaf, and every leaf of an
// extend of a stale (already extended) snapshot, is merged into fresh
// arrays. A stale extend also clips the capacity of the leaves it shares:
// their spare capacity may already hold the first extension's events,
// which an in-place append further down this branch would overwrite.
func (ix *ramIndex) extend(tmp [][]indexedEvent) (eventIndex, error) {
	inPlace := ix.extended.CompareAndSwap(false, true)
	nx := &ramIndex{leaves: make([]ramLeaf, len(ix.leaves))}
	for s, old := range ix.leaves {
		evs := tmp[s]
		if len(evs) == 0 {
			if !inPlace {
				old = old.clipped()
			}
			nx.leaves[s] = old
			continue
		}
		sortLeaf(evs)
		if inPlace && (len(old.start) == 0 || evs[0].start >= old.start[len(old.start)-1]) {
			for _, e := range evs {
				old.push(e)
			}
			nx.leaves[s] = old
			continue
		}
		merged := newRAMLeaf(len(old.start) + len(evs))
		for i, j := 0, 0; i < len(old.start) || j < len(evs); {
			if i < len(old.start) && (j >= len(evs) || old.start[i] <= evs[j].start) {
				merged.push(indexedEvent{start: old.start[i], end: old.end[i], state: old.state[i]})
				i++
			} else {
				merged.push(evs[j])
				j++
			}
		}
		nx.leaves[s] = merged
	}
	return nx, nil
}

// extend stacks a RAM overlay on the sealed store.
func (ix *diskIndex) extend(tmp [][]indexedEvent) (eventIndex, error) {
	return &overlayIndex{base: ix, tail: freezeRAM(tmp)}, nil
}

// extend merges into the overlay's RAM tail; the store stays shared.
func (ix *overlayIndex) extend(tmp [][]indexedEvent) (eventIndex, error) {
	tail, err := ix.tail.extend(tmp)
	if err != nil {
		return nil, err
	}
	return &overlayIndex{base: ix.base, tail: tail.(*ramIndex)}, nil
}

// overlayIndex layers live appended events (a ramIndex tail) over a
// sealed base index — how a disk-backed reslicer grows without rewriting
// its store. fill stream-merges the two sides back into the global
// (start, stream order) order the bit-identity invariant demands: the
// base is the stream prefix, so its events win start ties.
type overlayIndex struct {
	base eventIndex
	tail *ramIndex
}

func (ix *overlayIndex) fill(leaf int, winLo, winHi float64, visit func(state int32, start, end float64)) error {
	t := ix.tail.leaves[leaf]
	j1 := sort.SearchFloat64s(t.start, winHi)
	j := sort.Search(j1, func(i int) bool { return t.maxEnd[i] > winLo })
	// emitTailBefore flushes tail events with start strictly below limit
	// (strict: the base wins ties, it is earlier in the stream).
	emitTailBefore := func(limit float64) {
		for j < j1 && t.start[j] < limit {
			if t.end[j] > winLo {
				visit(t.state[j], t.start[j], t.end[j])
			}
			j++
		}
	}
	if err := ix.base.fill(leaf, winLo, winHi, func(state int32, start, end float64) {
		emitTailBefore(start)
		visit(state, start, end)
	}); err != nil {
		return err
	}
	emitTailBefore(math.Inf(1))
	return nil
}

func (ix *overlayIndex) numEvents() int64 { return ix.base.numEvents() + ix.tail.numEvents() }
func (ix *overlayIndex) memoryBytes() int64 {
	return ix.base.memoryBytes() + ix.tail.memoryBytes()
}
func (ix *overlayIndex) openChunkBytes() int64           { return ix.base.openChunkBytes() }
func (ix *overlayIndex) kind() string                    { return ix.base.kind() }
func (ix *overlayIndex) readStats() eventstore.ReadStats { return ix.base.readStats() }
func (ix *overlayIndex) storePath() string               { return ix.base.storePath() }
func (ix *overlayIndex) verify() (int, error)            { return ix.base.verify() }
func (ix *overlayIndex) close() error                    { return ix.base.close() }
