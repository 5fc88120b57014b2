// Package live is the live-ingestion engine behind the daemon's follow
// mode and `ocelotl -follow`: a Follower tails a trace file that is still
// being written and keeps an aggregation window sliding with it. Each
// Tick reads the newly flushed events, extends the event index
// copy-on-write (Reslicer.Extend) and advances the live window's Input by
// the slices it moved (Input.AdvanceContext — O(Δ slices)). The loop
// that drives it waits between ticks with Wait: a write to the file
// wakes it (Changed), and its poll interval, passing without one, is the
// fallback. Wait also rests the loop in proportion to what its recent ticks
// cost, so a writer that flushes without pause cannot keep it busy.
//
// The horizon is the maximum event start ingested. A time-ordered writer
// only appends events starting at or past it, so a window whose end ≤
// horizon is sealed: no future event can overlap it. The live window is
// the last N slices of a grid anchored at the trace start that end at or
// below the horizon (SealedPan), so the chained Input stays bit-identical
// to a scratch build over the same events. A batch reaching back before
// the horizon voids that; Tick reports it (Batch.Reorder) and rebuilds.
package live

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// maxBatch caps the events one Tick ingests, bounding tick latency; a
// backlog simply drains over consecutive ticks.
const maxBatch = 1 << 18

// restFactor bounds a follow loop's duty cycle: after ticks that took d
// (the median of the last three), Wait holds off a write's wake for
// restFactor·d, so however fast the writer flushes, ticking fills at
// most about 1/(restFactor+1) of the loop's time. Under a writer
// flushing every millisecond the CLI, whose ticks solve, then ticks
// 80–110 times a second instead of 800, and the daemon 700–850 times on
// under a tenth of a core (2-core Xeon). One flushing every 37 ms, as
// perfbench's follow writer does, is held off only after ticks longer
// than 1.9 ms.
const restFactor = 19

// maxSealedSlices bounds how many slices past the anchor start the live
// window may end: below 2^52 every boundary index is an exact float64, so
// the window a horizon seals is well defined.
const maxSealedSlices = 1 << 52

// ErrHorizon reports a horizon (an event start such as 1e300) too far
// past the anchor for the live grid to place a sealed window at it.
var ErrHorizon = errors.New("live: horizon past the representable live grid")

// Terminal reports whether a Tick error recurs on every retry: a corrupt
// trace or an ErrHorizon. After any other error the next Tick retries.
func Terminal(err error) bool {
	return traceio.IsCorrupt(err) || errors.Is(err, ErrHorizon)
}

// Options configures a Follower's event index and live Input.
type Options struct {
	Index microscopic.IndexOptions
	Input core.Options
}

// Follower is one followed trace's ingestion state: the tail, the live
// grid (anchor) and the pan placing the live window on it, the horizon,
// the newest event index and the live Input. It is not safe for
// concurrent use; the Reslicer and Live snapshots it hands out are
// immutable.
type Follower struct {
	tail    *traceio.TailReader
	opt     core.Options
	anchor  timeslice.Slicer
	pan     int
	horizon float64
	offset  int64
	resl    *microscopic.Reslicer
	live    *core.Input
	// watchErr says why the tail's file is not watched (Changed is nil).
	watchErr error
	// pending holds events read but not yet committed: a failed Tick
	// keeps them, so faults delay ingestion instead of losing events.
	pending []trace.Event
	// costs holds the last three ticks' costs Wait was given, the newest
	// at costs[next-1]; Wait rests on their median.
	costs [3]time.Duration
	next  int
}

// Batch is one Tick's outcome: the events ingested (0: nothing new was
// flushed), whether any started before the previous horizon (windows
// sealed earlier may have changed; the live Input was rebuilt), and how
// many slices the live window moved forward.
type Batch struct {
	Events   int
	Reorder  bool
	Advanced int
}

// Start begins a fresh follow over tail: it ingests every event already
// flushed and anchors a grid of slices slices, each width wide, at the
// trace start. Width 0 splits the header's declared window into slices,
// so the live view converges to the batch view once the writer is done.
// Start watches tail before reading it, so no write after the read goes
// unnoticed. Start owns tail: it is closed on error, and by Close.
func Start(ctx context.Context, tail *traceio.TailReader, slices int, width float64, opt Options) (*Follower, error) {
	watchErr := tail.Watch()
	p, err := readPrefix(tail, math.MaxInt64)
	if err != nil {
		tail.Close()
		return nil, err
	}
	if width == 0 {
		width = 1
		if _, hdrEnd := tail.Window(); hdrEnd > p.start {
			width = (hdrEnd - p.start) / float64(slices)
		}
	}
	anchor, err := timeslice.New(p.start, p.start+float64(slices)*width, slices)
	if err != nil {
		tail.Close()
		return nil, fmt.Errorf("live: grid: %w", err)
	}
	return boot(ctx, tail, watchErr, anchor, p, opt)
}

// Resume restarts a follow of path at the Offset and Horizon a previous
// Follower over anchor reported, with zero loss and zero drift: the
// prefix before offset is replayed into a fresh index and ingestion
// continues with the next record. Only the tail that continues is
// watched, not the one that replays. A file that no longer matches the
// resume point (truncated or rewritten since) is an error.
func Resume(ctx context.Context, path string, offset int64, horizon float64, anchor timeslice.Slicer, opt Options) (*Follower, error) {
	pre, err := traceio.OpenTail(path)
	if err != nil {
		return nil, err
	}
	p, err := readPrefix(pre, offset)
	off := pre.Offset()
	pre.Close()
	switch {
	case err != nil:
		return nil, err
	case off < offset:
		return nil, fmt.Errorf("file ends at offset %d, resume point is %d (truncated?)", off, offset)
	case off != offset:
		return nil, fmt.Errorf("prefix replay landed at offset %d, resume point is %d (not a record boundary)", off, offset)
	case p.end != horizon:
		return nil, fmt.Errorf("prefix replays to horizon %g, resume point says %g (file rewritten?)", p.end, horizon)
	}
	tail, err := traceio.OpenTailAt(path, offset)
	if err != nil {
		return nil, err
	}
	return boot(ctx, tail, tail.Watch(), anchor, p, opt)
}

// boot indexes the prefix and builds the live window sealed at its
// horizon. It owns tail.
func boot(ctx context.Context, tail *traceio.TailReader, watchErr error, anchor timeslice.Slicer, p *prefix, opt Options) (*Follower, error) {
	pan, err := SealedPan(anchor, p.end)
	var resl *microscopic.Reslicer
	if err == nil {
		resl, err = microscopic.NewReslicerIndexed(p, opt.Index)
	}
	if err != nil {
		tail.Close()
		return nil, err
	}
	f := &Follower{tail: tail, opt: opt.Input, anchor: anchor, pan: pan,
		horizon: p.end, offset: tail.Offset(), resl: resl, watchErr: watchErr}
	if f.live, err = f.build(ctx, resl, pan); err != nil {
		tail.Close()
		resl.Close()
		return nil, err
	}
	return f, nil
}

// Tick ingests one batch: read the newly flushed events, Extend the index,
// and advance the live Input to the window sealed at the new horizon —
// rebuilding it instead when the batch is out of order. The new state is
// committed only once every step has succeeded; on error the Follower is
// unchanged and the events already read wait for the next Tick.
func (f *Follower) Tick(ctx context.Context) (Batch, error) {
	var err error
	if f.pending, err = readFlushed(f.tail, f.pending, math.MaxInt64, maxBatch); err != nil || len(f.pending) == 0 {
		return Batch{}, err
	}
	b, horizon := Batch{Events: len(f.pending)}, f.horizon
	for _, e := range f.pending {
		b.Reorder = b.Reorder || e.Start < f.horizon
		if e.Start > horizon {
			horizon = e.Start
		}
	}
	pan, err := SealedPan(f.anchor, horizon)
	if err != nil {
		return Batch{}, err
	}
	resl, err := f.resl.Extend(f.pending, horizon)
	if err != nil {
		return Batch{}, err
	}
	b.Advanced = pan - f.pan
	in := f.live
	switch {
	case b.Reorder:
		in, err = f.build(ctx, resl, pan)
	case b.Advanced > 0:
		in, err = in.AdvanceContext(ctx, resl, b.Advanced)
		// Advanced == 0: the window didn't move and (time-ordered batch)
		// no new event starts before its end — the Input stays exact.
	}
	if err != nil {
		return Batch{}, err
	}
	f.resl, f.live, f.pan, f.horizon = resl, in, pan, horizon
	f.offset = f.tail.Offset()
	f.pending = f.pending[:0]
	return b, nil
}

// build scratch-builds the live window at pan over resl.
func (f *Follower) build(ctx context.Context, resl *microscopic.Reslicer, pan int) (*core.Input, error) {
	m, err := resl.BuildAt(f.anchor.Shift(pan))
	if err != nil {
		return nil, err
	}
	return core.NewInputContext(ctx, m, f.opt)
}

// Anchor is the live grid; the live window is Anchor().Shift(Pan()).
func (f *Follower) Anchor() timeslice.Slicer { return f.anchor }

// Pan places the live window on the anchor grid.
func (f *Follower) Pan() int { return f.pan }

// Horizon is the maximum event start ingested.
func (f *Follower) Horizon() float64 { return f.horizon }

// Offset is the tail offset just past the last ingested record.
func (f *Follower) Offset() int64 { return f.offset }

// Reslicer is the newest event index, the caller's to close when no
// snapshot of it is in use.
func (f *Follower) Reslicer() *microscopic.Reslicer { return f.resl }

// Live is the live window's Input.
func (f *Follower) Live() *core.Input { return f.live }

// Changed is the tail's write wake (traceio.TailReader.Changed), which
// Wait selects on. It is nil when the file is not watched; WatchErr says
// why.
func (f *Follower) Changed() <-chan struct{} { return f.tail.Changed() }

// WatchErr reports why the tail's file is not watched (Changed is nil).
func (f *Follower) WatchErr() error { return f.watchErr }

// Wait blocks until the loop driving f should tick again, given that its
// last tick, publishing included, just ended after busy: when a write
// wakes f (Changed) but no sooner than restFactor times the median cost
// of the last three ticks from now, or once poll has passed with no
// wake. The median lets a cost that persists over two of three ticks
// rest the loop, while one slow tick (a GC pause, a stall) does not hold
// off the next write's wake. The rest never exceeds poll, so poll stays
// the longest gap between reads of the file. Wait reports false when ctx
// is done.
func (f *Follower) Wait(ctx context.Context, poll, busy time.Duration) bool {
	f.costs[f.next] = busy
	f.next = (f.next + 1) % len(f.costs)
	a, b, c := f.costs[0], f.costs[1], f.costs[2]
	median := max(min(a, b), min(max(a, b), c))
	rest := min(restFactor*median, poll)
	t := time.NewTimer(rest)
	defer t.Stop()
	if rest > 0 {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
	}
	t.Reset(poll - rest)
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
	case <-f.Changed():
	}
	return true
}

// Close releases the tail. The index stays open (see Reslicer).
func (f *Follower) Close() error { return f.tail.Close() }

// SealedPan returns the pan (relative to anchor) of the live window whose
// end is the last slice boundary at or below horizon, or -anchor.N when
// none is. It binary-searches the exact floats Shift produces (so the
// window passes a horizon admission guard) in at most 53 steps; a horizon
// more than maxSealedSlices slices past the anchor start is an ErrHorizon.
func SealedPan(anchor timeslice.Slicer, horizon float64) (int, error) {
	sealed := func(pan int) bool { return anchor.Shift(pan).End <= horizon }
	lo, hi := -anchor.N, maxSealedSlices-anchor.N
	if sealed(hi) {
		return 0, fmt.Errorf("%w: horizon %g is over %d slices of width %g past the grid start %g",
			ErrHorizon, horizon, maxSealedSlices, anchor.Width(), anchor.Start)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if sealed(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// readFlushed appends tail's records to evs until its committed offset
// reaches limit, evs holds max events or the flushed data runs out (an
// incomplete record is the end of the flushed data, not an error).
func readFlushed(tail *traceio.TailReader, evs []trace.Event, limit int64, max int) ([]trace.Event, error) {
	var ev trace.Event
	for tail.Offset() < limit && len(evs) < max {
		if err := tail.Next(&ev); err != nil {
			if traceio.IsIncomplete(err) {
				break
			}
			return evs, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// readPrefix reads tail's flushed records up to offset limit. The
// returned source's window ends at the horizon: the maximum start read.
func readPrefix(tail *traceio.TailReader, limit int64) (*prefix, error) {
	evs, err := readFlushed(tail, nil, limit, math.MaxInt)
	start, _ := tail.Window()
	p := &prefix{resources: tail.Resources(), states: tail.States(), start: start, end: start, events: evs}
	for _, e := range evs {
		if e.Start > p.end {
			p.end = e.Start
		}
	}
	return p, err
}

// prefix feeds the events read at Start or Resume to the indexed
// constructor, with the ingested horizon as the window end.
type prefix struct {
	resources, states []string
	start, end        float64
	events            []trace.Event
	i                 int
}

func (p *prefix) Resources() []string        { return p.resources }
func (p *prefix) States() []string           { return p.states }
func (p *prefix) Window() (float64, float64) { return p.start, p.end }
func (p *prefix) Next(ev *trace.Event) error {
	if p.i >= len(p.events) {
		return io.EOF
	}
	*ev = p.events[p.i]
	p.i++
	return nil
}
