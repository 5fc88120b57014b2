package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// Follow mode: live ingestion of a trace that is still being written.
//
// One follower goroutine per follow-loaded trace tails the file
// (traceio.OpenTail), and each tick extends the trace's Reslicer with the
// newly flushed events (microscopic.Reslicer.Extend — copy-on-write, so
// queries in flight keep their snapshot), advances the live window's
// Input incrementally (core.Input.AdvanceContext — O(Δ slices)), and
// swaps a fresh immutable Trace snapshot into the registry.
//
// Correctness under concurrent queries hangs on the *horizon* rule: the
// horizon is the maximum event start ingested so far, and a time-ordered
// writer can only append events starting at or past it. A window whose
// end ≤ horizon is therefore sealed — no future event can overlap it —
// so cached Inputs for sealed windows stay bit-identical to scratch
// forever and ticks do NOT bump the trace generation: hits, ladder pins
// and pan-derivations all survive ingestion. Queries past the horizon
// are refused with 400 (they would cache unsealed floats). A batch that
// violates time order (min start < horizon) takes the safe fallback:
// generation bump + cache purge + live-window rebuild, exactly the
// unload/reload consistency path.
//
// The live window itself is the last liveSlices slices of a fixed grid
// anchored at the trace start (the anchor), shifted forward as the
// horizon crosses slice boundaries. live=1 on any query endpoint
// resolves to it, and the trace's Info publishes (lo, hi, slices, pan)
// such that an explicit ?lo=&hi=&slices=&pan= query reproduces the exact
// window — the same floats — which is what makes follow responses
// byte-comparable against a scratch server.

// followDefaultPoll is the tail poll interval when the load request
// leaves poll_ms unset.
const followDefaultPoll = 200 * time.Millisecond

// followOpenWait bounds how long POST /traces waits for the file to
// appear with a complete header before failing the load.
const followOpenWait = 5 * time.Second

// followMaxBatch caps the events ingested per tick, bounding tick
// latency; a backlog simply drains over consecutive ticks.
const followMaxBatch = 1 << 18

// followState is the published follow view carried by each immutable
// Trace snapshot (handlers read it without locking; the follower
// publishes a fresh one per tick).
type followState struct {
	anchor  timeslice.Slicer // live grid: New(start, start+T·w, T)
	pan     int              // anchor.Shift(pan) is the current live window
	horizon float64          // max event start ingested; sealed time
	ticks   int64            // ticks that ingested at least one event
	offset  int64            // tail reader committed byte offset (resume point)
	poll    time.Duration    // tail poll interval (journaled for resume)
}

// liveWindow returns the current live slicer.
func (fs *followState) liveWindow() timeslice.Slicer { return fs.anchor.Shift(fs.pan) }

// follower is one trace's ingestion loop state (owned by its goroutine;
// the registry snapshot is the only shared view).
type follower struct {
	id     string
	tail   *traceio.TailReader
	poll   time.Duration
	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	// live chains tick to tick so each advance is O(Δ slices); nil until
	// the first build, rebuilt from scratch after a reorder.
	live *core.Input
	// pending holds events read from the tail but not yet extended into
	// the index — kept across a failed tick (e.g. an armed extend
	// failpoint) so chaos faults delay ingestion instead of losing events.
	pending []trace.Event
}

// sealedPan returns the pan (relative to the anchor) of the live window
// whose end sits at the last slice boundary at or below horizon. The
// boundary comparison uses the exact floats Shift produces, so the
// returned window always passes the horizon admission guard.
func sealedPan(anchor timeslice.Slicer, horizon float64) int {
	w := anchor.Width()
	e := int(math.Floor((horizon - anchor.Start) / w))
	if e < 0 {
		e = 0
	}
	pan := e - anchor.N
	for pan > -anchor.N && anchor.Shift(pan).End > horizon {
		pan--
	}
	for anchor.Shift(pan+1).End <= horizon {
		pan++
	}
	return pan
}

// FollowTrace loads a trace in follow mode outside the HTTP API (daemon
// preloading, tests, embedders) with default poll and grid settings.
func (s *Server) FollowTrace(ctx context.Context, id, path string) (*Trace, error) {
	return s.startFollow(ctx, loadRequest{ID: id, Path: path, Follow: true})
}

// startFollow loads a trace in follow mode: it waits (briefly) for the
// file's header, ingests whatever events are already flushed, and boots
// the follower over the same tail.
func (s *Server) startFollow(ctx context.Context, req loadRequest) (*Trace, error) {
	poll := followDefaultPoll
	if req.PollMs > 0 {
		poll = time.Duration(req.PollMs) * time.Millisecond
	}
	liveSlices := microscopic.DefaultSlices
	if req.LiveSlices > 0 {
		liveSlices = req.LiveSlices
	}
	if req.SliceWidth < 0 || math.IsNaN(req.SliceWidth) || math.IsInf(req.SliceWidth, 0) {
		return nil, fmt.Errorf("server: bad slice_width %v", req.SliceWidth)
	}
	if _, exists := s.reg.Get(req.ID); exists {
		return nil, fmt.Errorf("server: trace %q %w", req.ID, ErrAlreadyLoaded)
	}

	tail, err := s.openTailWait(ctx, req.Path, poll)
	if err != nil {
		return nil, err
	}
	prefix, err := readPrefix(tail, math.MaxInt64)
	if err != nil {
		tail.Close()
		return nil, err
	}
	width := req.SliceWidth
	if width == 0 {
		// Default grid: the header's declared window split into liveSlices
		// — the live view converges to the batch view at completion.
		width = 1
		if _, hdrEnd := tail.Window(); hdrEnd > prefix.start {
			width = (hdrEnd - prefix.start) / float64(liveSlices)
		}
	}
	anchor, err := timeslice.New(prefix.start, prefix.start+float64(liveSlices)*width, liveSlices)
	if err != nil {
		tail.Close()
		return nil, fmt.Errorf("server: follow grid: %w", err)
	}
	tr, err := s.bootFollower(req.ID, req.Path, 0, followState{anchor: anchor, poll: poll}, prefix, tail)
	if err != nil {
		return nil, err
	}
	s.log.Info("follow started", "trace", req.ID, "path", req.Path,
		"events", tr.Events, "horizon", prefix.end, "poll", poll,
		"live_slices", liveSlices, "slice_width", width)
	return tr, nil
}

// readPrefix ingests tail's records until its committed offset reaches
// limit or the flushed data runs out (an incomplete record is the end of
// the flushed prefix, not an error). The returned source's window ends at
// the horizon: the maximum event start read.
func readPrefix(tail *traceio.TailReader, limit int64) (*followSource, error) {
	start, _ := tail.Window()
	p := &followSource{resources: tail.Resources(), states: tail.States(), start: start, end: start}
	var ev trace.Event
	for tail.Offset() < limit {
		if err := tail.Next(&ev); err != nil {
			if traceio.IsIncomplete(err) {
				break
			}
			return nil, err
		}
		if ev.Start > p.end {
			p.end = ev.Start
		}
		p.events = append(p.events, ev)
	}
	return p, nil
}

// bootFollower is the follower bootstrap shared by a fresh follow and a
// recovery resume, which differ only in fs's anchor, poll and ticks, the
// gen (0: a fresh lineage) and where prefix and tail come from. It
// indexes the prefix and completes fs with the prefix horizon, the live
// window sealed at it and the tail's offset. The follower is tracked
// before the trace is visible, so a DELETE racing the load always finds
// the loop to stop; the snapshot is registered, the live window seeded so
// the first live=1 query is a hit, and the ingestion loop started.
// bootFollower owns tail: on error it is released with the index.
func (s *Server) bootFollower(id, path string, gen uint64, fs followState, prefix *followSource, tail *traceio.TailReader) (*Trace, error) {
	resl, err := microscopic.NewReslicerIndexed(prefix, s.reg.indexOpts)
	if err != nil {
		tail.Close()
		return nil, err
	}
	fs.horizon = prefix.end
	fs.pan = sealedPan(fs.anchor, fs.horizon)
	fs.offset = tail.Offset()
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{id: id, tail: tail, poll: fs.poll, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	tr := &Trace{ID: id, Path: path, resl: resl, gen: gen, follow: &fs}

	s.followMu.Lock()
	_, dup := s.followers[id]
	if !dup {
		s.followers[id] = f
	}
	s.followMu.Unlock()
	if dup {
		err = fmt.Errorf("server: trace %q %w", id, ErrAlreadyLoaded)
	} else if tr, err = s.reg.register(tr); err != nil {
		s.followMu.Lock()
		if s.followers[id] == f {
			delete(s.followers, id)
		}
		s.followMu.Unlock()
	}
	if err != nil {
		// The loop never started: close done for a DELETE that found f
		// in the meantime and waits on it.
		cancel()
		close(f.done)
		tail.Close()
		resl.Close()
		return nil, err
	}

	if in, err := s.buildLive(ctx, tr); err == nil {
		f.live = in
		s.cache.Seed(tr, in)
	} else if !isCancellation(err) {
		s.log.Warn("follow: initial live build failed", "trace", id, "error", err)
	}
	go s.runFollower(f)
	return tr, nil
}

// followRetryBase and followRetryCap bound the retry backoff shared by
// openTailWait and the follower loop's error path: exponential from the
// base, jittered (a uniform draw from [d/2, d]), capped so a long outage
// still polls a few times a second rather than going silent.
const (
	followRetryBase = 20 * time.Millisecond
	followRetryCap  = 500 * time.Millisecond
)

// followBackoff returns the jittered sleep for the given consecutive-
// failure count (1-based) and counts the retry.
func (s *Server) followBackoff(failures int) time.Duration {
	d := followRetryBase << uint(failures-1)
	if d <= 0 || d > followRetryCap {
		d = followRetryCap
	}
	s.cache.stats.FollowRetries.Add(1)
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// openTailWait retries OpenTail while the file is missing or its header
// incomplete — the writer may not have flushed it yet — with capped
// jittered exponential backoff (counted in follow_retries), bounded by
// followOpenWait and the request context.
func (s *Server) openTailWait(ctx context.Context, path string, poll time.Duration) (*traceio.TailReader, error) {
	deadline := time.Now().Add(followOpenWait)
	for attempt := 1; ; attempt++ {
		tail, err := traceio.OpenTail(path)
		if err == nil {
			return tail, nil
		}
		if !os.IsNotExist(err) && !traceio.IsIncomplete(err) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server: waiting for followable header: %w", err)
		}
		wait := s.followBackoff(attempt)
		if wait > poll {
			wait = poll
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// followSource feeds the initial in-memory prefix to the indexed
// constructor with the ingested horizon as the window end.
type followSource struct {
	resources, states []string
	start, end        float64
	events            []trace.Event
	i                 int
}

func (s *followSource) Resources() []string        { return s.resources }
func (s *followSource) States() []string           { return s.states }
func (s *followSource) Window() (float64, float64) { return s.start, s.end }
func (s *followSource) Next(ev *trace.Event) error {
	if s.i >= len(s.events) {
		return io.EOF
	}
	*ev = s.events[s.i]
	s.i++
	return nil
}

// buildLive scratch-builds the trace snapshot's current live window.
func (s *Server) buildLive(ctx context.Context, tr *Trace) (*core.Input, error) {
	m, err := tr.resl.BuildAt(tr.follow.liveWindow())
	if err != nil {
		return nil, err
	}
	return core.NewInputContext(ctx, m, s.cache.opts)
}

// runFollower is the per-trace ingestion loop: poll, tick, repeat until
// cancelled (DELETE or drain). Retryable tick errors — I/O hiccups, armed
// failpoints — are logged and retried with the pending batch intact,
// under the shared jittered backoff (counted in follow_retries, reset on
// the first good tick) so a persistent fault doesn't spin the poll;
// corruption is terminal (it never repairs), the loop parks with the
// last good snapshot still served.
func (s *Server) runFollower(f *follower) {
	defer close(f.done)
	defer f.tail.Close()
	ticker := time.NewTicker(f.poll)
	defer ticker.Stop()
	failures := 0
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-ticker.C:
		}
		err := s.followTick(f)
		if err == nil {
			failures = 0
			continue
		}
		if f.ctx.Err() != nil || isCancellation(err) {
			return
		}
		if traceio.IsCorrupt(err) {
			s.log.Error("follow stopped: trace corrupt", "trace", f.id, "error", err)
			return
		}
		failures++
		wait := s.followBackoff(failures)
		s.log.Warn("follow tick failed; retrying", "trace", f.id, "error", err,
			"failures", failures, "backoff", wait)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// followTick ingests one batch: read newly flushed events, Extend the
// snapshot's reslicer, advance the live Input incrementally, publish the
// new snapshot, seed the cache. Reads errNothing new as a no-op.
func (s *Server) followTick(f *follower) error {
	var ev trace.Event
	for len(f.pending) < followMaxBatch {
		err := f.tail.Next(&ev)
		if err != nil {
			if traceio.IsIncomplete(err) {
				break
			}
			return err
		}
		f.pending = append(f.pending, ev)
	}
	if len(f.pending) == 0 {
		return nil
	}
	cur, ok := s.reg.Get(f.id)
	if !ok || cur.follow == nil {
		return nil // unloaded under us; cancellation is on its way
	}
	fs := cur.follow

	minStart, maxStart := math.Inf(1), math.Inf(-1)
	for _, e := range f.pending {
		if e.Start < minStart {
			minStart = e.Start
		}
		if e.Start > maxStart {
			maxStart = e.Start
		}
	}
	reorder := minStart < fs.horizon
	horizon := fs.horizon
	if maxStart > horizon {
		horizon = maxStart
	}

	resl, err := cur.resl.Extend(f.pending, horizon)
	if err != nil {
		return err
	}
	nfs := &followState{
		anchor:  fs.anchor,
		pan:     sealedPan(fs.anchor, horizon),
		horizon: horizon,
		ticks:   fs.ticks + 1,
		offset:  f.tail.Offset(),
		poll:    fs.poll,
	}
	batch := len(f.pending)
	f.pending = f.pending[:0]

	k := nfs.pan - fs.pan
	ntr := &Trace{ID: cur.ID, Path: cur.Path, Events: resl.NumEvents(),
		LoadedAt: cur.LoadedAt, resl: resl, gen: cur.gen, follow: nfs}
	if reorder {
		// Out-of-order batch: sealed-window reasoning is void for every
		// cached entry, so isolate them behind a fresh generation — the
		// unload/reload consistency path — and rebuild the live chain.
		ntr.gen = s.reg.gen.Add(1)
		s.cache.stats.FollowReorders.Add(1)
	}
	live := f.live
	switch {
	case reorder || live == nil:
		live, err = s.buildLive(f.ctx, ntr)
		if err != nil {
			return err
		}
	case k > 0:
		live, err = live.AdvanceContext(f.ctx, resl, k)
		if err != nil {
			return err
		}
		// k == 0: the window didn't move and (time-ordered batch) no new
		// event starts before its end — the chained Input stays exact.
	}

	if reorder {
		s.cache.PurgeTrace(cur.ID, cur.gen)
	}
	if !s.reg.replace(ntr) {
		return nil // unloaded during the tick
	}
	f.live = live
	s.cache.Seed(ntr, live)
	s.cache.stats.FollowTicks.Add(1)
	s.cache.stats.FollowEvents.Add(int64(batch))
	// Journal the advanced resume offset every checkpointTicks ticks —
	// a non-blocking kick to the keeper, nothing durable on this path.
	if s.state != nil && s.checkpointTicks > 0 && nfs.ticks%int64(s.checkpointTicks) == 0 {
		s.requestCheckpoint()
	}
	s.log.Debug("follow tick", "trace", f.id, "events", batch,
		"horizon", horizon, "pan", nfs.pan, "advanced_slices", k, "reorder", reorder)
	return nil
}

// stopFollower cancels id's follower (if any) and waits for the loop to
// exit — DELETE and drain call it before touching the registry, so the
// loop can never publish a snapshot for a removed trace.
func (s *Server) stopFollower(id string) {
	s.followMu.Lock()
	f := s.followers[id]
	delete(s.followers, id)
	s.followMu.Unlock()
	if f == nil {
		return
	}
	f.cancel()
	<-f.done
}

// StopFollowers stops every follow loop and waits for them (daemon
// shutdown, before Registry.CloseAll releases the indexes).
func (s *Server) StopFollowers() {
	s.followMu.Lock()
	fs := make([]*follower, 0, len(s.followers))
	for id, f := range s.followers {
		fs = append(fs, f)
		delete(s.followers, id)
	}
	s.followMu.Unlock()
	for _, f := range fs {
		f.cancel()
	}
	for _, f := range fs {
		<-f.done
	}
}
