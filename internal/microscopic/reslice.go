package microscopic

import (
	"fmt"
	"math"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

// SliceOverlap describes the slices shared between two models at the same
// temporal resolution: old slice OldLo+i covers exactly the same time
// interval — the same boundary floats — as new slice NewLo+i for every
// 0 ≤ i < W. W = 0 means the windows share nothing reusable.
type SliceOverlap struct {
	OldLo, NewLo, W int
}

// Shared reports whether the overlap carries any reusable slices.
func (ov SliceOverlap) Shared() bool { return ov.W > 0 }

// Reslicer is the incremental counterpart of Build/BuildStream: it retains
// a per-resource event index so that a window change fills only the slices
// that actually changed. A pan that keeps W of |T| slices costs O(events
// overlapping the |T|−W new slices) instead of a pass over the whole
// trace; a zoom costs O(events overlapping the new window).
//
// The index has two backends behind one contract (see eventIndex): the
// in-RAM struct-of-arrays (~28 B/event — the small-trace fast path) and
// the chunked on-disk event store (O(window) bytes per fill — the
// out-of-core path for traces past RAM). NewReslicer builds the RAM index
// of an in-memory trace; NewReslicerIndexed indexes any EventSource and
// selects the backend by IndexOptions. Both backends visit identical
// events in identical order, so the models they produce are bit-identical.
//
// Construction reads the event source once, on a goroutine of the
// constructor's own that decodes and validates events while the calling
// goroutine indexes them; the source must not be shared until the
// constructor returns, and it is never read after that.
//
// A Reslicer is immutable after construction and safe for concurrent use;
// the Models it produces carry a back-pointer to it (Model.Reslicer), which
// the core layer's Pan/Zoom helpers use. Disk-backed reslicers own a
// temporary store file: Close releases it (fills racing a Close fail with
// an error, never garbage).
type Reslicer struct {
	h      *hierarchy.Hierarchy
	states []string
	// Observation window of the underlying trace.
	winStart, winEnd float64
	// r2leaf maps trace resource IDs to hierarchy leaves — retained so
	// Extend can validate and route appended events exactly like the
	// constructors did.
	r2leaf []int

	idx eventIndex
}

// indexedEvent is an appended event before Extend merges it into the
// index's struct-of-arrays form.
type indexedEvent struct {
	start, end float64
	state      int32
}

// NewReslicer indexes an in-memory trace for incremental windowing (RAM
// index — the trace is in memory already). The hierarchy is derived from
// the trace's resource paths, as in Build.
func NewReslicer(tr *trace.Trace) (*Reslicer, error) {
	return NewReslicerIndexed(TraceSource(tr), IndexOptions{Mode: IndexRAM})
}

// indexEvent validates event k against the tables and appends it to its
// leaf's bucket; the validation is checkEvent's, shared with the load so
// the acceptance rules cannot drift apart.
func indexEvent(tmp [][]indexedEvent, r2leaf []int, numStates, k int, e trace.Event) error {
	s, err := checkEvent(r2leaf, numStates, k, e)
	if err != nil {
		return err
	}
	tmp[s] = append(tmp[s], indexedEvent{e.Start, e.End, int32(e.State)})
	return nil
}

// leafMap maps trace resource IDs to hierarchy leaf indices.
func leafMap(h *hierarchy.Hierarchy, resources []string) ([]int, error) {
	r2leaf := make([]int, len(resources))
	for i, p := range resources {
		li := h.LeafIndex(p)
		if li < 0 {
			return nil, fmt.Errorf("microscopic: resource %q not a leaf of the hierarchy", p)
		}
		r2leaf[i] = li
	}
	return r2leaf, nil
}

func emptyReslicer(h *hierarchy.Hierarchy, states []string, start, end float64) *Reslicer {
	return &Reslicer{
		h:        h,
		states:   append([]string(nil), states...),
		winStart: start,
		winEnd:   end,
	}
}

// Hierarchy returns the platform hierarchy shared by every model this
// reslicer produces.
func (r *Reslicer) Hierarchy() *hierarchy.Hierarchy { return r.h }

// States returns the state table.
func (r *Reslicer) States() []string { return r.states }

// TraceWindow returns the observation window of the indexed trace.
func (r *Reslicer) TraceWindow() (start, end float64) { return r.winStart, r.winEnd }

// NumEvents returns the number of indexed events.
func (r *Reslicer) NumEvents() int { return int(r.idx.numEvents()) }

// IndexKind names the index backend: "ram" or "disk".
func (r *Reslicer) IndexKind() string { return r.idx.kind() }

// IndexMemoryBytes returns the index's fixed resident cost — the event
// arrays for the RAM backend, the chunk directory for the disk backend.
// Reported distinctly from Input (model/arena) bytes so serving-layer
// budgets don't double-count.
func (r *Reslicer) IndexMemoryBytes() int64 { return r.idx.memoryBytes() }

// OpenChunkBytes returns the disk backend's decoded-chunk cache
// residency; 0 for the RAM backend.
func (r *Reslicer) OpenChunkBytes() int64 { return r.idx.openChunkBytes() }

// IndexReadStats snapshots the disk backend's read counters (zero for
// the RAM backend): window-locality assertions and /debug/cachestats
// read these.
func (r *Reslicer) IndexReadStats() eventstore.ReadStats { return r.idx.readStats() }

// StorePath names the sealed store file backing a disk index ("" for the
// RAM backend) — the path the serving layer journals so a restart can
// reopen it via OpenReslicerStore.
func (r *Reslicer) StorePath() string { return r.idx.storePath() }

// VerifyIndex re-reads and CRC-checks every chunk of a disk-backed
// index (the scrub pass), bypassing the decoded-chunk cache. It returns
// the chunks verified and the first corruption found; RAM backends
// verify (0, nil).
func (r *Reslicer) VerifyIndex() (int, error) { return r.idx.verify() }

// Close releases the index. For the RAM backend this is a no-op; for the
// disk backend it closes and removes the store file — fills in flight
// fail with an error after that, they never read freed memory or
// recycled file handles into a model.
func (r *Reslicer) Close() error { return r.idx.close() }

// Build constructs the initial model, like the package-level Build but
// from the index, producing a Model bound to this reslicer. The zero
// Options window means the full trace window.
func (r *Reslicer) Build(opt Options) (*Model, error) {
	sl, err := opt.slicer(r.winStart, r.winEnd)
	if err != nil {
		return nil, err
	}
	return r.BuildAt(sl)
}

// BuildAt fills a complete model for an exact slicer. Incremental updates
// and from-scratch builds share this fill path, which is what makes a
// chain of Shift/Zoom calls bit-identical to one BuildAt on the final
// slicer (every cell accumulates the same events in the same order). The
// error is always nil for RAM-backed reslicers; disk-backed fills can
// fail on I/O or a corrupt chunk.
func (r *Reslicer) BuildAt(sl timeslice.Slicer) (*Model, error) {
	m := NewEmpty(r.h, sl, r.states)
	m.resl = r
	if err := r.fillRange(m, 0, sl.N-1); err != nil {
		return nil, err
	}
	return m, nil
}

// Shift pans the model's window by k slices on the same grid, copying the
// |T|−|k| surviving slice columns and filling only the |k| new ones from
// the event index. The returned overlap is what core.Input.Update needs to
// reuse its matrices. Panning past the trace extent is allowed — slices
// out there are simply empty.
func (r *Reslicer) Shift(m *Model, k int) (*Model, SliceOverlap, error) {
	T := m.Slicer.N
	nm := NewEmpty(r.h, m.Slicer.Shift(k), r.states)
	nm.resl = r
	ov := ShiftOverlap(T, k)
	if !ov.Shared() {
		if err := r.fillRange(nm, 0, T-1); err != nil {
			return nil, SliceOverlap{}, err
		}
		return nm, ov, nil
	}
	for x := range nm.dx {
		oldRow, newRow := m.dx[x], nm.dx[x]
		for s := 0; s < r.h.NumLeaves(); s++ {
			copy(newRow[s*T+ov.NewLo:s*T+ov.NewLo+ov.W], oldRow[s*T+ov.OldLo:s*T+ov.OldLo+ov.W])
		}
	}
	var err error
	if k > 0 {
		err = r.fillRange(nm, T-k, T-1)
	} else {
		err = r.fillRange(nm, 0, -k-1)
	}
	if err != nil {
		return nil, SliceOverlap{}, err
	}
	return nm, ov, nil
}

// ShiftOverlap returns the surviving-slice mapping of a k-slice pan over a
// |T|-slice window: the overlap Shift reports, exposed so consumers (like
// core.Input.Update) can re-derive it from two slicers' grid offset.
func ShiftOverlap(T, k int) SliceOverlap {
	switch {
	case k >= T || k <= -T:
		return SliceOverlap{}
	case k >= 0:
		return SliceOverlap{OldLo: k, NewLo: 0, W: T - k}
	default:
		return SliceOverlap{OldLo: 0, NewLo: -k, W: T + k}
	}
}

// Shift returns the pan distance the overlap encodes: the k such that old
// slice i+k coincides with new slice i. Only meaningful for overlaps that
// share slices.
func (ov SliceOverlap) Shift() int { return ov.OldLo - ov.NewLo }

// GridOverlap is the one place window arithmetic between two slicers
// happens: it reports which of new's slices are bit-identical to slices of
// old. Both windows must sit on one anchored grid (same origin and width)
// and have the same slice count; the pan distance is clamped against the
// window width by ShiftOverlap, so callers never re-implement the
// |k| < |T| bound. Off-grid or reshaped windows share nothing. The CLI's
// pan/zoom replay, core.Input's overlap verification and the serving
// layer's cache all derive their reuse decisions from this.
func GridOverlap(old, new timeslice.Slicer) SliceOverlap {
	if old.N != new.N {
		return SliceOverlap{}
	}
	k, ok := old.OnGrid(new)
	if !ok {
		return SliceOverlap{}
	}
	return ShiftOverlap(old.N, k)
}

// Zoom re-slices the time range covered by slices [lo, hi] of m's window
// into the same number of slices. Indices outside [0, |T|) address the
// grid's extrapolation, so Zoom(-|T|/2, |T|+|T|/2-1) is a 2× zoom-out.
// When the zoomed grid coincides with the old one (hi−lo+1 == |T|), this
// is exactly a pan and the overlap is reported accordingly; otherwise the
// slice width changes, nothing is reusable and the window is refilled from
// the index (O(events overlapping the new window), not a trace pass).
func (r *Reslicer) Zoom(m *Model, lo, hi int) (*Model, SliceOverlap, error) {
	T := m.Slicer.N
	if hi < lo {
		return nil, SliceOverlap{}, fmt.Errorf("microscopic: zoom range [%d,%d] inverted", lo, hi)
	}
	if hi-lo+1 == T { // same width: a pure pan, keep the grid
		return r.Shift(m, lo)
	}
	start, end := m.Slicer.IntervalBounds(lo, hi)
	sl, err := timeslice.New(start, end, T)
	if err != nil {
		return nil, SliceOverlap{}, fmt.Errorf("microscopic: %w", err)
	}
	nm, err := r.BuildAt(sl)
	if err != nil {
		return nil, SliceOverlap{}, err
	}
	return nm, SliceOverlap{}, nil
}

// fillRange accumulates d_x(s,t) for slices lo..hi of m from the event
// index: spread clips each event to those slices' span (and to the
// window) and adds its overlap to their cells, never touching the cells
// outside lo..hi. The full build and every incremental fill funnel
// through here, and the index visits a leaf's events in (start, stream)
// order, so any given cell always sums the same events in the same order
// — the bit-identity the incremental engine path relies on, whichever
// index backend serves the events.
func (r *Reslicer) fillRange(m *Model, lo, hi int) error {
	sl := m.Slicer
	lo, hi = max(lo, 0), min(hi, sl.N-1)
	if hi < lo {
		return nil
	}
	edges, w := boundaries(sl, lo, hi), sl.Width()
	winLo, winHi := edges[0], edges[len(edges)-1]
	clipLo, clipHi := math.Max(winLo, sl.Start), math.Min(winHi, sl.End)
	for s := 0; s < r.h.NumLeaves(); s++ {
		base := s*sl.N + lo
		err := r.idx.fill(s, winLo, winHi, func(state int32, start, end float64) {
			spread(m.dx[state][base:], edges, w, clipLo, clipHi, start, end)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
