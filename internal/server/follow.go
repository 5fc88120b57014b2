package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"ocelotl/internal/live"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/traceio"
)

// Follow mode: live ingestion of a trace that is still being written.
//
// The ingestion engine — tail, live grid, horizon, sealed pan and the
// Extend-then-advance tick — is internal/live, the same Follower
// `ocelotl -follow` drives. This file wraps it in the daemon's policies:
// one goroutine per follow-loaded trace ticks it when a write to the file
// wakes it (the tail's watch) or its poll interval passes without one,
// with jittered backoff on retryable errors, and each tick that ingested
// events swaps a fresh immutable Trace snapshot into the registry
// (queries in flight keep theirs), seeds the cache with the live Input
// and counts the tick.
//
// The engine's horizon rule keeps the cache exact: a window ending at or
// below the horizon is sealed, so cached Inputs for sealed windows stay
// bit-identical to scratch and ticks do NOT bump the trace generation —
// hits, ladder pins and pan-derivations survive ingestion. Queries past
// the horizon are refused with 400. An out-of-order batch takes the
// unload/reload consistency path: generation bump + cache purge. live=1
// resolves to the live window, and Info publishes (lo, hi, slices, pan)
// such that the explicit query reproduces its exact floats — which makes
// follow responses byte-comparable against a scratch server.

// followDefaultPoll is the longest a follower goes without re-reading
// its file when the load request leaves poll_ms unset. A watched file's
// follower reads it on every write as well.
const followDefaultPoll = 200 * time.Millisecond

// pollInterval converts a load request's or a journal's poll_ms: 0 is the
// default, and a value no positive Duration holds is refused.
func pollInterval(ms int) (time.Duration, error) {
	if ms == 0 {
		return followDefaultPoll, nil
	}
	if ms < 0 || int64(ms) > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("server: poll_ms=%d is not a positive duration in milliseconds", ms)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// followOpenWait bounds how long POST /traces waits for the file to
// appear with a complete header before failing the load.
const followOpenWait = 5 * time.Second

// followState is the published follow view carried by each immutable
// Trace snapshot (handlers read it without locking; the follower
// publishes a fresh one per tick).
type followState struct {
	anchor  timeslice.Slicer // live grid: New(start, start+T·w, T)
	pan     int              // anchor.Shift(pan) is the current live window
	horizon float64          // max event start ingested; sealed time
	ticks   int64            // ticks that ingested at least one event
	offset  int64            // tail reader committed byte offset (resume point)
	poll    time.Duration    // longest gap between reads of the file (journaled for resume)
}

// liveWindow returns the current live slicer.
func (fs *followState) liveWindow() timeslice.Slicer { return fs.anchor.Shift(fs.pan) }

// follower is one trace's ingestion loop state (owned by its goroutine;
// the registry snapshot is the only shared view).
type follower struct {
	id     string
	eng    *live.Follower
	poll   time.Duration
	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}
	// A tick that ingested events counts toward the next checkpoint only
	// once a poll interval has passed since the last one that counted
	// (at countedAt): checkpoints come every checkpointTicks polls that
	// carried events, however often writes wake the loop.
	countedAt time.Time
	counted   int
}

// state is the follow view of the engine's committed state.
func (f *follower) state(ticks int64) *followState {
	return &followState{anchor: f.eng.Anchor(), pan: f.eng.Pan(), horizon: f.eng.Horizon(),
		ticks: ticks, offset: f.eng.Offset(), poll: f.poll}
}

// FollowTrace loads a trace in follow mode outside the HTTP API (daemon
// preloading, tests, embedders) with default poll and grid settings.
func (s *Server) FollowTrace(ctx context.Context, id, path string) (*Trace, error) {
	return s.startFollow(ctx, loadRequest{ID: id, Path: path, Follow: true})
}

// startFollow loads a trace in follow mode: it waits (briefly) for the
// file's header, then starts the engine over the tail — which ingests
// whatever events are already flushed — and boots the follower.
func (s *Server) startFollow(ctx context.Context, req loadRequest) (*Trace, error) {
	poll, err := pollInterval(req.PollMs)
	if err != nil {
		return nil, err
	}
	liveSlices := microscopic.DefaultSlices
	if req.LiveSlices > 0 {
		liveSlices = req.LiveSlices
	}
	if req.SliceWidth < 0 || math.IsNaN(req.SliceWidth) || math.IsInf(req.SliceWidth, 0) {
		return nil, fmt.Errorf("server: bad slice_width %v", req.SliceWidth)
	}
	if liveSlices > s.maxSlices {
		// Every live=1 query would be refused at this grid, so the load is.
		return nil, fmt.Errorf("server: live_slices=%d exceeds the server cap %d", liveSlices, s.maxSlices)
	}
	if _, exists := s.reg.Get(req.ID); exists {
		return nil, fmt.Errorf("server: trace %q %w", req.ID, ErrAlreadyLoaded)
	}

	tail, err := s.openTailWait(ctx, req.Path, poll)
	if err != nil {
		return nil, err
	}
	eng, err := live.Start(ctx, tail, liveSlices, req.SliceWidth, live.Options{Index: s.reg.indexOpts, Input: s.cache.opts})
	if err != nil {
		return nil, err
	}
	tr, err := s.bootFollower(req.ID, req.Path, 0, 0, poll, eng)
	if err != nil {
		return nil, err
	}
	s.log.Info("follow started", "trace", req.ID, "path", req.Path,
		"events", tr.Events, "horizon", eng.Horizon(), "poll", poll,
		"live_slices", liveSlices, "slice_width", eng.Anchor().Width())
	return tr, nil
}

// bootFollower publishes a started engine, a fresh follow's (gen 0: a
// fresh lineage) or a resume's. The follower is tracked before the trace
// is visible, so a DELETE racing the load always finds the loop to stop;
// then the snapshot is registered, the live window seeded so the first
// live=1 query is a hit, and the loop started. bootFollower owns eng.
func (s *Server) bootFollower(id, path string, gen uint64, ticks int64, poll time.Duration, eng *live.Follower) (*Trace, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{id: id, eng: eng, poll: poll, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	tr := &Trace{ID: id, Path: path, resl: eng.Reslicer(), gen: gen, follow: f.state(ticks)}

	s.followMu.Lock()
	_, dup := s.followers[id]
	if !dup {
		s.followers[id] = f
	}
	s.followMu.Unlock()
	var err error
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
		eng.Close()
		eng.Reslicer().Close()
		return nil, err
	}
	s.cache.Seed(tr, eng.Live())
	if eng.Changed() == nil {
		s.log.Warn("follow: file not watched; polling only", "trace", id, "poll", poll, "reason", eng.WatchErr())
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

// runFollower is the per-trace ingestion loop: wait for a write to the
// file or, failing one, for the poll interval to pass since the last
// tick (live.Follower.Wait, which also rests the loop in proportion to
// the recent ticks' cost); tick; repeat until cancelled (DELETE or drain).
// Retryable tick errors — I/O hiccups, armed failpoints — are logged and
// retried with the engine's pending batch intact, under the shared
// jittered backoff (counted in follow_retries, reset on the first good
// tick) so a persistent fault doesn't spin the loop; a terminal error
// (a corrupt trace, a horizon the live grid cannot place —
// live.Terminal) never repairs, so the loop parks with the last good
// snapshot still served.
func (s *Server) runFollower(f *follower) {
	defer close(f.done)
	defer f.eng.Close()
	failures := 0
	var busy time.Duration
	for f.eng.Wait(f.ctx, f.poll, busy) {
		start := time.Now()
		err := s.followTick(f)
		busy = time.Since(start)
		if err == nil {
			failures = 0
			continue
		}
		if f.ctx.Err() != nil || isCancellation(err) {
			return
		}
		if live.Terminal(err) {
			s.log.Error("follow stopped: trace unfollowable", "trace", f.id, "error", err)
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

// followTick runs one engine tick and, when it ingested events,
// publishes the new snapshot: on an out-of-order batch under a fresh
// generation with the old one's cache entries purged, then the cache seed
// with the live Input, the tick counters and the checkpoint kick.
func (s *Server) followTick(f *follower) error {
	cur, ok := s.reg.Get(f.id)
	if !ok || cur.follow == nil {
		return nil // unloaded under us; cancellation is on its way
	}
	b, err := f.eng.Tick(f.ctx)
	if err != nil || b.Events == 0 {
		return err
	}
	nfs := f.state(cur.follow.ticks + 1)
	resl := f.eng.Reslicer()
	ntr := &Trace{ID: cur.ID, Path: cur.Path, Events: resl.NumEvents(),
		LoadedAt: cur.LoadedAt, resl: resl, gen: cur.gen, follow: nfs}
	if b.Reorder {
		// Out-of-order batch: sealed-window reasoning is void for every
		// cached entry, so isolate them behind a fresh generation — the
		// unload/reload consistency path.
		ntr.gen = s.reg.gen.Add(1)
		s.cache.stats.FollowReorders.Add(1)
		s.cache.PurgeTrace(cur.ID, cur.gen)
	}
	if !s.reg.swap(cur, ntr) {
		return nil // unloaded during the tick
	}
	s.cache.Seed(ntr, f.eng.Live())
	s.cache.stats.FollowTicks.Add(1)
	s.cache.stats.FollowEvents.Add(int64(b.Events))
	// Journal the advanced resume offset every checkpointTicks counted
	// ticks — a non-blocking kick to the keeper, nothing durable on this
	// path.
	if s.state != nil && s.checkpointTicks > 0 && time.Since(f.countedAt) >= f.poll {
		f.countedAt = time.Now()
		if f.counted++; f.counted == s.checkpointTicks {
			f.counted = 0
			s.requestCheckpoint()
		}
	}
	s.log.Debug("follow tick", "trace", f.id, "events", b.Events,
		"horizon", nfs.horizon, "pan", nfs.pan, "advanced_slices", b.Advanced, "reorder", b.Reorder)
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
