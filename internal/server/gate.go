package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// OverloadError is the serving layer's load-shedding refusal: the build
// gate is saturated and this request either found the wait queue full or
// would blow its own deadline before reaching the front. Handlers map it
// to 503 with a Retry-After derived from the gate's current backlog
// estimate — the client-visible contract that a shed request is
// retryable, not failed.
type OverloadError struct {
	RetryAfter time.Duration
	Reason     string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server overloaded (%s): retry in %v", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// defaultBuildEstimate seeds the gate's build-latency EWMA before any
// build has completed; real observations replace it within a few builds.
const defaultBuildEstimate = 100 * time.Millisecond

// buildGate bounds the number of window builds running at once. Builds
// are the expensive admission unit of the server — each one fills
// O(|H(S)|·|T|²) matrices — and without a bound a burst of scratch
// requests queues unboundedly behind the solver pool, taking every
// later request down with it. The gate holds a fixed number of slots and
// a FIFO wait queue; requests beyond the queue cap, and requests whose
// deadline is closer than the estimated time to reach the front, are
// shed immediately (OverloadError → 503 + Retry-After) instead of
// queueing past their budget. The estimate is an EWMA of observed build
// latencies, so Retry-After tracks the actual workload.
//
// Cache hits never touch the gate: shedding applies to work, not
// lookups.
type buildGate struct {
	capacity int
	maxQueue int

	mu       sync.Mutex
	inflight int
	queue    *list.List // of *gateWaiter, FIFO

	avgBuildNs atomic.Int64
}

// gateWaiter is one queued build; ready is closed when a released slot
// is handed to it.
type gateWaiter struct {
	ready chan struct{}
}

func newBuildGate(capacity, maxQueue int) *buildGate {
	g := &buildGate{capacity: capacity, maxQueue: maxQueue, queue: list.New()}
	g.avgBuildNs.Store(int64(defaultBuildEstimate))
	return g
}

// expectedWaitLocked estimates how long a request arriving now would
// wait for a slot with queued requests already ahead of it: every
// capacity-sized wave of the backlog costs one average build.
func (g *buildGate) expectedWaitLocked(queued int) time.Duration {
	avg := time.Duration(g.avgBuildNs.Load())
	waves := queued/g.capacity + 1
	return avg * time.Duration(waves)
}

// Acquire claims a build slot, queueing FIFO behind the backlog.
// waitCtx governs the wait itself (the flight's own context — a
// build every stake abandoned stops queueing); reqCtx contributes only
// its deadline, against which a queued request is shed as doomed before
// it waits at all. The returned release hands the slot to the next
// waiter.
func (g *buildGate) Acquire(waitCtx, reqCtx context.Context) (release func(), err error) {
	g.mu.Lock()
	if g.inflight < g.capacity {
		g.inflight++
		g.mu.Unlock()
		return g.release, nil
	}
	queued := g.queue.Len()
	wait := g.expectedWaitLocked(queued)
	if queued >= g.maxQueue {
		g.mu.Unlock()
		return nil, &OverloadError{Reason: "build queue full", RetryAfter: wait}
	}
	if deadline, ok := reqCtx.Deadline(); ok && time.Until(deadline) < wait {
		g.mu.Unlock()
		return nil, &OverloadError{Reason: "deadline shorter than queue", RetryAfter: wait}
	}
	w := &gateWaiter{ready: make(chan struct{})}
	el := g.queue.PushBack(w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		return g.release, nil
	case <-waitCtx.Done():
		g.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with the cancellation: the slot is ours
			// to give back.
			g.mu.Unlock()
			g.release()
		default:
			g.queue.Remove(el)
			g.mu.Unlock()
		}
		return nil, waitCtx.Err()
	}
}

// release returns a slot: the FIFO head inherits it, or the in-flight
// count drops.
func (g *buildGate) release() {
	g.mu.Lock()
	if el := g.queue.Front(); el != nil {
		g.queue.Remove(el)
		close(el.Value.(*gateWaiter).ready)
		g.mu.Unlock()
		return
	}
	g.inflight--
	g.mu.Unlock()
}

// RecordBuild feeds one observed build latency into the EWMA behind
// Retry-After and the doomed-deadline check (weight 1/8: stable under
// the mixed derived/scratch latencies one trace produces).
func (g *buildGate) RecordBuild(d time.Duration) {
	old := g.avgBuildNs.Load()
	g.avgBuildNs.Store(old - old/8 + int64(d)/8)
}

// Backlog reports the gate's instantaneous occupancy (metrics).
func (g *buildGate) Backlog() (inflight, queued int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight, g.queue.Len()
}
