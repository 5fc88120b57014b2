package server

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
)

// BuildKind records how a window's Input was obtained, for the
// per-request log line and /debug/cachestats.
type BuildKind string

const (
	// BuildHit: the exact window was cached.
	BuildHit BuildKind = "hit"
	// BuildDerived: a miss served by Input.UpdateContext from the nearest
	// cached overlapping window (O(Δ·|T|) per node instead of O(|T|²)).
	BuildDerived BuildKind = "derived"
	// BuildScratch: a miss with no overlapping neighbor — a full input
	// pass (NewInputContext) over a Reslicer-filled model.
	BuildScratch BuildKind = "scratch"
	// BuildCoalesced: the request piggybacked on an identical in-flight
	// build (singleflight).
	BuildCoalesced BuildKind = "coalesced"
	// BuildPreview: a refine request answered with a coarse covering
	// cached window while the fine build proceeds in the background.
	BuildPreview BuildKind = "preview"
)

// windowKey identifies one cached Input by (trace load, window): the
// trace id + its load generation (so a reloaded id never matches the old
// load's entries or in-flight builds) and the window's slice count +
// exact boundary floats. Windows on one grid at different offsets — pans
// of one another — hash to different keys but share a resolution level
// (levelOf); the grid relation between them is what the derivation path
// exploits, and the shared level is what the ladder pins.
type windowKey struct {
	trace      string
	gen        uint64
	slices     int
	start, end float64
}

// levelOf is the ladder level of a window: the float bits of its slice
// grid's width (timeslice.Slicer.Grid). Every pan of one grid carries the
// grid's width bit-for-bit, whereas (End−Start)/N recomputed from the
// boundary floats drifts in the last ulp from pan to pan whenever the
// width is not a power-of-two fraction — which would count pans as zooms
// and fill the pin cap with phantom levels. The level is an attribute of
// an entry, not part of its key: a New-built and a Shift-derived slicer
// for the same boundary floats may differ in their grid width's last ulp,
// and they must still hit the same entry.
func levelOf(sl timeslice.Slicer) uint64 {
	_, w, _ := sl.Grid()
	return math.Float64bits(w)
}

// entry is one cached Input on the LRU list. ov memoizes the entry's
// pair-merged coarse overview (core.Input.CoarsenContext) for progressive
// responses: built at most once, labeled preview on the wire, and never
// inserted under a window key of its own — merge-derived floats may
// differ in the last ulp from an event-index build at the coarse grid,
// and window keys promise byte-identity with scratch.
type entry struct {
	key   windowKey
	level uint64 // levelOf the Input's slicer
	in    *core.Input
	bytes int // in + charged, charged against the budget

	ovMu sync.Mutex
	ov   *core.Input
	// charged is ov once the entry is charged for it; guarded by the
	// cache mu, not ovMu, so every eviction pass can re-read its bytes.
	charged *core.Input
}

// traceGen addresses one trace load.
type traceGen struct {
	trace string
	gen   uint64
}

// DefaultLadderLevels bounds each trace load's pinned ladder: 8 levels
// span a 128× zoom range at factor-2 steps. Levels beyond the cap are not
// pinned (their entries still cache normally).
const DefaultLadderLevels = 8

// flight is one in-flight build; concurrent requests for the same key
// wait on done instead of building again. The build runs on the flight's
// own goroutine and context: its result is shared, so no one caller may
// kill work others still want. Every caller that joins holds a stake,
// dropped when its context ends; the last drop — every response that
// would have carried this Input abandoned — cancels the build.
type flight struct {
	// done is closed, and ctx cancelled, under the cache mu when the
	// flight lands.
	done chan struct{}
	in   *core.Input
	kind BuildKind
	err  error

	ctx    context.Context // the build's own context
	cancel context.CancelFunc
	// Guarded by the cache mu: the stakes held, and what they leave to
	// release once the flight lands (drop registrations, adoption timers).
	stakes   int
	releases []func() bool
}

// result is a landed flight's outcome as one caller reports it: kind is
// the caller's join (BuildCoalesced), or "" for the caller that started
// the flight, which reports how the build ran.
func (f *flight) result(kind BuildKind) (*core.Input, BuildKind, error) {
	if kind == "" {
		kind = f.kind
	}
	return f.in, kind, f.err
}

// InputCache is the window-keyed Input cache of the serving layer: an LRU
// over (trace, window) with a byte budget derived from
// core.Input.MemoryBytes. A miss does not go straight to a scratch build
// — it first looks for the nearest cached window of the same trace and
// shape that overlaps the request on its slice grid
// (microscopic.GridOverlap) and derives the new Input incrementally via
// Input.UpdateContext, falling back to a from-scratch build only when
// nothing overlaps. Concurrent requests for the same window are
// deduplicated (singleflight): one build runs, the rest wait for its
// result.
//
// The LRU list doubles as each hot trace's multi-resolution ladder: per
// trace load, the first entry of each grid level on the list (the level's
// most recently used window) is pinned against the first eviction pass,
// for the load's ladderMax most recently used levels (see pinsLocked). A
// zoom back to a resolution the analyst has touched before therefore
// lands next to a warm same-level window and resolves as a hit or
// pan-derivation: the first visit to a resolution pays a scratch build,
// every later visit pays O(Δ·|T|) per node.
//
// Every eviction pass re-reads each entry's MemoryBytes (its overview's
// included), so memo growth is charged whether or not the window is hit
// again. Admit, though, checks only an Input's arenas and Model rows
// (core.EstimateMemoryBytes), and a memo may grow to twice those after
// admission; the entry at the LRU front is never its own victim, so one
// window admitted near the budget can hold the cache over it by up to
// twice its admitted size while it stays at the front.
type InputCache struct {
	budget    int64
	opts      core.Options
	ladderMax int
	// gate, when non-nil, bounds how many flights build at once and
	// sheds deadline-doomed or over-queued builds (see buildGate). Set by
	// the Server; hits and coalesced waits never touch it.
	gate *buildGate

	mu       sync.Mutex
	lru      *list.List // of *entry; front = most recently used
	entries  map[windowKey]*list.Element
	inflight map[windowKey]*flight
	bytes    int64
	// purged[trace] is the highest unloaded generation per trace id:
	// inserts at or below it (builds that were in flight across an
	// unload) are discarded instead of parking unreachable entries
	// against the budget.
	purged map[string]uint64
	// lastLevel is each trace load's last requested grid level, which
	// classifies the next request as a pan (same level) or a zoom.
	lastLevel map[traceGen]uint64

	stats Stats
}

// NewInputCache returns a cache holding at most budget bytes of Input
// arenas (≤ 0 keeps nothing cached — every request builds, which the
// eviction and benchmark paths use). opts configures every Input built
// through the cache; ladderLevels caps each trace's pinned resolution
// ladder (≤ 0 means DefaultLadderLevels).
func NewInputCache(budget int64, opts core.Options, ladderLevels int) *InputCache {
	if ladderLevels <= 0 {
		ladderLevels = DefaultLadderLevels
	}
	return &InputCache{
		budget:    budget,
		opts:      opts,
		ladderMax: ladderLevels,
		lru:       list.New(),
		entries:   make(map[windowKey]*list.Element),
		inflight:  make(map[windowKey]*flight),
		purged:    make(map[string]uint64),
		lastLevel: make(map[traceGen]uint64),
	}
}

func keyFor(tr *Trace, sl timeslice.Slicer) windowKey {
	return windowKey{trace: tr.ID, gen: tr.gen, slices: sl.N, start: sl.Start, end: sl.End}
}

// Get returns the Input for the trace restricted to sl's window, and how
// it was obtained. The returned Input is immutable and remains valid
// after eviction; callers never hold cache locks while using it.
//
// ctx is the caller's request context. A cache hit is served regardless
// (it costs one map lookup). On a miss ctx only governs this caller's
// stake in the flight (see join): an already-cancelled ctx returns
// ctx.Err() before any work starts, and one cancelled mid-wait returns
// ctx.Err() at once. A cancellation error is only ever the caller's own.
func (c *InputCache) Get(ctx context.Context, tr *Trace, sl timeslice.Slicer) (*core.Input, BuildKind, error) {
	in, f, kind, err := c.join(ctx, tr, sl)
	if f == nil {
		return in, kind, err
	}
	select {
	case <-f.done:
		return f.result(kind)
	case <-ctx.Done():
		return nil, kind, ctx.Err()
	}
}

// join resolves one request for sl's window without waiting: a hit
// returns the cached Input with kind BuildHit; a miss returns the flight
// building it — the live one in flight (kind BuildCoalesced), or a fresh
// one this call starts (kind "") — with a stake held for ctx until ctx
// ends or the flight lands. A flight whose stakes were all dropped is
// already cancelled (drop cancels under c.mu), so join replaces it rather
// than inherit its cancellation.
func (c *InputCache) join(ctx context.Context, tr *Trace, sl timeslice.Slicer) (*core.Input, *flight, BuildKind, error) {
	key := keyFor(tr, sl)

	c.mu.Lock()
	defer c.mu.Unlock()
	zoom := c.noteLevelLocked(traceGen{tr.ID, tr.gen}, levelOf(sl))
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits.Add(1)
		c.evictToBudgetLocked()
		return el.Value.(*entry).in, nil, BuildHit, nil
	}
	if err := ctx.Err(); err != nil {
		// Expired before any build work: fail fast rather than start (or
		// pile onto) a build whose response this caller will never read.
		return nil, nil, "", err
	}
	kind := BuildCoalesced
	f, ok := c.inflight[key]
	if ok && f.ctx.Err() == nil {
		c.stats.Coalesced.Add(1)
	} else {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		f = &flight{done: make(chan struct{}), ctx: fctx, cancel: cancel}
		c.inflight[key] = f
		c.stats.Misses.Add(1)
		src, aligned := c.nearestLocked(tr, sl)
		go c.fly(f, key, ctx, tr, sl, src, aligned, zoom)
		kind = ""
	}
	c.holdLocked(f, ctx)
	return nil, f, kind, nil
}

// holdLocked takes a stake in f for ctx, dropped when ctx ends.
func (c *InputCache) holdLocked(f *flight, ctx context.Context) {
	f.stakes++
	if ctx.Done() != nil { // a context that never ends holds its stake for good
		f.releases = append(f.releases, context.AfterFunc(ctx, func() { c.drop(f) }))
	}
}

// drop gives up one stake in f; the last one cancels the flight's build.
func (c *InputCache) drop(f *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.stakes--; f.stakes == 0 {
		f.cancel()
	}
}

// fly is a flight's goroutine: it runs the build, lands the result —
// insert, zoom counters, in-flight delete — and closes done. The
// in-flight entry is deleted only while it is still this flight: a
// cancelled flight may already have been replaced by a fresh one.
func (c *InputCache) fly(f *flight, key windowKey, reqCtx context.Context, tr *Trace, sl timeslice.Slicer, src *entry, aligned timeslice.Slicer, zoom bool) {
	f.in, f.kind, f.err = c.runBuild(f.ctx, reqCtx, tr, sl, src, aligned)

	c.mu.Lock()
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if f.err == nil {
		c.insertLocked(tr, f.in)
		if zoom {
			// A resolution change that built: the ladder either made it a
			// derivation (the level was warm) or it fell through to the
			// event index. Same-level builds are pans, counted elsewhere.
			switch f.kind {
			case BuildDerived:
				c.stats.ZoomDerived.Add(1)
			case BuildScratch:
				c.stats.ZoomScratch.Add(1)
			}
		}
	}
	for _, release := range f.releases {
		release()
	}
	f.releases = nil
	close(f.done)
	f.cancel()
	c.mu.Unlock()
}

// adopt keeps f's build going after the request that answered with a
// preview returns: one more stake, under a context of its own that
// expires after timeout (≤ 0: never) and is released when f lands. It
// adds a stake to the flight the request already joined rather than
// joining again, so it counts as no window request. A flight already
// landed or abandoned (its context is cancelled under c.mu) is left be.
func (c *InputCache) adopt(f *flight, timeout time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.ctx.Err() != nil {
		return
	}
	ctx, cancel := context.Background(), func() {}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	c.holdLocked(f, ctx)
	f.releases = append(f.releases, func() bool { cancel(); return true })
}

// nearestLocked finds the cached window of the same trace load and slice
// count sharing the most slices with target, together with target
// re-anchored onto that entry's grid. Windows built independently at the
// same resolution carry distinct float anchors even when their grids
// coincide, so alignment goes two ways: the exact grid relation first
// (microscopic.GridOverlap), then a numeric re-anchor that is accepted
// only if shifting the candidate's slicer reproduces the requested
// boundary floats bit-exactly.
func (c *InputCache) nearestLocked(tr *Trace, target timeslice.Slicer) (*entry, timeslice.Slicer) {
	var best *entry
	bestW := 0
	bestSl := target
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.key.trace != tr.ID || e.key.gen != tr.gen || e.key.slices != target.N {
			continue
		}
		cand := e.in.Model.Slicer
		ov := microscopic.GridOverlap(cand, target)
		sl := target
		if !ov.Shared() {
			var ok bool
			if sl, ok = reanchor(cand, target); !ok {
				continue
			}
			ov = microscopic.GridOverlap(cand, sl)
		}
		if ov.W > bestW {
			best, bestW, bestSl = e, ov.W, sl
		}
	}
	return best, bestSl
}

// reanchor tries to express target on base's grid: if some k-slice shift
// of base reproduces target's boundary floats exactly, the shifted slicer
// is target as base's grid sees it. Anything short of bit-exact equality
// is rejected — close-but-different windows must rebuild, never reuse.
func reanchor(base, target timeslice.Slicer) (timeslice.Slicer, bool) {
	if base.N != target.N {
		return timeslice.Slicer{}, false
	}
	k := int(math.Round((target.Start - base.Start) / base.Width()))
	cand := base.Shift(k)
	if cand.Start != target.Start || cand.End != target.End {
		return timeslice.Slicer{}, false
	}
	return cand, true
}

// noteLevelLocked records level as the trace load's last requested
// resolution and reports whether this request changed level — a zoom, as
// opposed to a pan or re-query at the current resolution.
func (c *InputCache) noteLevelLocked(tg traceGen, level uint64) bool {
	last, ok := c.lastLevel[tg]
	c.lastLevel[tg] = level
	return ok && last != level
}

// Admit is the arithmetic admission guard: it rejects a window whose
// Input alone would exceed the cache budget, computed from the trace and
// slice-count shape (core.EstimateMemoryBytes) before any arena is
// allocated or any build starts — one oversized request must not evict an
// entire working ladder just to cache a single entry that the next insert
// drops anyway. A disabled cache admits everything (there is no ladder to
// protect).
func (c *InputCache) Admit(tr *Trace, sl timeslice.Slicer) error {
	if c.budget <= 0 {
		return nil
	}
	h := tr.resl.Hierarchy()
	est := core.EstimateMemoryBytes(h.NumNodes(), h.NumLeaves(), len(tr.resl.States()), sl.N)
	// Disk-backed indexes keep decoded chunks resident while serving
	// fills; that memory shares the machine with the Input arenas, so
	// admission charges it against the budget instead of pretending the
	// arenas are the only residents.
	avail := c.budget - tr.resl.OpenChunkBytes()
	if est > avail {
		c.stats.Rejected.Add(1)
		return fmt.Errorf("window at %d slices needs ~%d bytes of Input arenas, cache budget is %d bytes (%d held by open index chunks)",
			sl.N, est, c.budget, c.budget-avail)
	}
	return nil
}

// Preview returns a coarse stand-in for sl's window for progressive
// responses: the tightest cached window of the same trace load that
// contains [sl.Start, sl.End] — any level — served through its memoized
// pair-merged overview. Nil when nothing covers the request (first touch
// of a region) — the caller falls back to the synchronous path.
func (c *InputCache) Preview(tr *Trace, sl timeslice.Slicer) *core.Input {
	key := keyFor(tr, sl)
	c.mu.Lock()
	var best *entry
	var bestEl *list.Element
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.key.trace != tr.ID || e.key.gen != tr.gen || e.key == key {
			continue
		}
		if e.key.start > sl.Start || e.key.end < sl.End {
			continue
		}
		if best == nil || e.key.end-e.key.start < best.key.end-best.key.start {
			best, bestEl = e, el
		}
	}
	if best == nil {
		c.mu.Unlock()
		return nil
	}
	c.lru.MoveToFront(bestEl)
	c.mu.Unlock()
	return c.overview(best)
}

// previewCoarsenMin: below this |T| a covering window is cheap enough to
// solve as-is and doubles as its own preview; at or above it the preview
// runs at half resolution (the solve is O(|T|³) — the coarse overview
// answers ~8× faster).
const previewCoarsenMin = 32

// overview returns e's preview Input: the entry's own Input for small
// windows, otherwise its factor-2 CoarsenContext, built at most once per
// entry and charged against the cache budget alongside the entry.
func (c *InputCache) overview(e *entry) *core.Input {
	if e.key.slices < previewCoarsenMin || e.key.slices%2 != 0 {
		return e.in
	}
	e.ovMu.Lock()
	defer e.ovMu.Unlock()
	if e.ov == nil {
		// The overview is memoized and shared by every later preview of
		// this entry, so no single request's context may abort it.
		ov, err := e.in.CoarsenContext(context.Background(), 2)
		if err != nil {
			return e.in
		}
		e.ov = ov
		c.mu.Lock()
		if el, ok := c.entries[e.key]; ok && el.Value.(*entry) == e {
			e.charged = ov
			c.evictToBudgetLocked()
		}
		c.mu.Unlock()
	}
	return e.ov
}

// FailpointFlight names the fault-injection site at the start of every
// singleflight build, evaluated with the flight's own context. Chaos
// tests inject errors, delays and panics here; deterministic tests use
// failpoint.EnableFunc to hold a build in place and observe the
// all-stakes-dropped semantics.
const FailpointFlight = "server/flight"

// runBuild is build wrapped in the overload and fault armor every flight
// gets: the build gate (bounded concurrency, FIFO queue, early shedding
// — reqCtx contributes the deadline the doom check runs against) and a
// panic barrier. A panicking build must fail its flight like any other
// error: it runs on the flight's goroutine, where nothing else would
// recover it, and the landing in fly still deletes the inflight entry and
// closes f.done, so every waiter gets the 500 instead of blocking forever
// on a flight that will never complete.
func (c *InputCache) runBuild(ctx, reqCtx context.Context, tr *Trace, sl timeslice.Slicer, src *entry, aligned timeslice.Slicer) (in *core.Input, kind BuildKind, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.stats.Panics.Add(1)
			in, kind = nil, ""
			err = fmt.Errorf("window build panicked: %v", r)
		}
	}()
	if c.gate != nil {
		release, gerr := c.gate.Acquire(ctx, reqCtx)
		if gerr != nil {
			return nil, "", gerr
		}
		start := time.Now()
		defer func() {
			c.gate.RecordBuild(time.Since(start))
			release()
		}()
	}
	return c.build(ctx, tr, sl, src, aligned)
}

// build produces the Input for sl outside the cache lock: derived from
// src when a neighbor overlaps, from scratch otherwise. src.in is
// immutable, so the build is safe even if the entry is evicted meanwhile.
// ctx is the flight's own context: it is checked between the build's
// stages (model fill, input pass) and — through NewInputContext /
// AdvanceContext — once per hierarchy node inside the matrix fill itself,
// so a flight every stake abandoned dies mid-fill rather than running
// its most expensive step to completion for a dead Input.
func (c *InputCache) build(ctx context.Context, tr *Trace, sl timeslice.Slicer, src *entry, aligned timeslice.Slicer) (*core.Input, BuildKind, error) {
	if err := failpoint.InjectContext(ctx, FailpointFlight); err != nil {
		return nil, "", err
	}
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	if src != nil {
		if ov := microscopic.GridOverlap(src.in.Model.Slicer, aligned); ov.Shared() {
			in, err := src.in.AdvanceContext(ctx, tr.resl, ov.Shift())
			if err != nil {
				return nil, "", err
			}
			c.stats.Derived.Add(1)
			return in, BuildDerived, nil
		}
	}
	m, err := tr.resl.BuildAt(sl)
	if err != nil {
		return nil, "", err
	}
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	in, err := core.NewInputContext(ctx, m, c.opts)
	if err != nil {
		return nil, "", err
	}
	c.stats.Scratch.Add(1)
	return in, BuildScratch, nil
}

// insertLocked caches in under its own window of tr and evicts from the
// LRU tail until the byte budget holds. The inserted entry itself is
// exempt from its own eviction pass (an over-budget single Input still
// serves its request and is dropped on the next insert).
func (c *InputCache) insertLocked(tr *Trace, in *core.Input) {
	if c.budget <= 0 {
		return
	}
	if tr.gen <= c.purged[tr.ID] { // built across an unload: discard
		return
	}
	key := keyFor(tr, in.Model.Slicer)
	if el, ok := c.entries[key]; ok { // lost a race with an equivalent build
		c.lru.MoveToFront(el)
		return
	}
	e := &entry{key: key, level: levelOf(in.Model.Slicer), in: in}
	c.entries[key] = c.lru.PushFront(e)
	c.evictToBudgetLocked()
}

// Seed inserts an already-built Input under its own window key — the
// follower's per-tick publish of the live window, so the first query
// after a tick is a plain hit. Subject to the same admission rules as a
// miss-path insert (budget, purge floor, ladder pins).
func (c *InputCache) Seed(tr *Trace, in *core.Input) {
	if in == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(tr, in)
}

// resumLocked re-reads every entry's byte cost, its overview's
// included. An Input's memo grows during the solves that follow the
// insert or hit that last charged it — an overview's during the preview
// solves that never touch its entry — and a window that is never hit
// again would otherwise keep that growth off the budget.
func (c *InputCache) resumLocked() {
	c.bytes = 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		e.bytes = e.in.MemoryBytes()
		if e.charged != nil {
			e.bytes += e.charged.MemoryBytes()
		}
		c.bytes += int64(e.bytes)
	}
}

// pinsLocked reads the ladder pins off the LRU list in one front-to-back
// walk: per trace load, the first entry of each grid level, for the
// load's ladderMax most recently used levels.
func (c *InputCache) pinsLocked() map[*entry]bool {
	pins := make(map[*entry]bool)
	levels := make(map[traceGen]map[uint64]bool)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		tg := traceGen{e.key.trace, e.key.gen}
		seen := levels[tg]
		if seen == nil {
			seen = make(map[uint64]bool)
			levels[tg] = seen
		}
		if !seen[e.level] && len(seen) < c.ladderMax {
			seen[e.level] = true
			pins[e] = true
		}
	}
	return pins
}

// evictToBudgetLocked re-reads every entry's cost (resumLocked) and
// brings the cache back under budget in two passes from the LRU tail:
// first sparing the ladder pins (one window per visited resolution per
// hot trace stays warm under pressure from one-off windows), then — if
// the pins alone still overflow — evicting regardless, because the byte
// budget is the harder promise. The LRU front (the entry that triggered
// the pass) is never its own victim.
func (c *InputCache) evictToBudgetLocked() {
	c.resumLocked()
	if c.bytes <= c.budget {
		return
	}
	pins := c.pinsLocked()
	var prev *list.Element
	for el := c.lru.Back(); el != nil && el.Prev() != nil && c.bytes > c.budget; el = prev {
		prev = el.Prev()
		if !pins[el.Value.(*entry)] {
			c.evictLocked(el)
		}
	}
	for c.bytes > c.budget && c.lru.Len() > 1 {
		c.evictLocked(c.lru.Back())
	}
}

func (c *InputCache) evictLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(e.bytes)
	c.stats.Evictions.Add(1)
}

// PurgeTrace drops every cached window of the given trace (unload path)
// and records gen as the trace's purged-generation floor, so builds still
// in flight for the unloaded generation discard their result at insert
// instead of parking an unreachable entry against the budget.
func (c *InputCache) PurgeTrace(traceID string, gen uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.purged[traceID] {
		c.purged[traceID] = gen
	}
	for tg := range c.lastLevel {
		if tg.trace == traceID {
			delete(c.lastLevel, tg)
		}
	}
	n := 0
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*entry).key.trace == traceID {
			c.evictLocked(el)
			n++
		}
	}
	return n
}

// Snapshot returns the current counters plus the cache's occupancy, its
// bytes re-read from every entry, and the process's idle solver scratch.
func (c *InputCache) Snapshot() StatsSnapshot {
	c.mu.Lock()
	c.resumLocked()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	s := c.stats.snapshot()
	s.Entries = entries
	s.Bytes = bytes
	s.IdleScratchBytes = core.IdleScratchBytes()
	s.BudgetBytes = c.budget
	return s
}
