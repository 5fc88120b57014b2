package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ocelotl/internal/failpoint"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/testutil"
	"ocelotl/internal/timeslice"
)

// serveWithContext drives the handler directly with a caller-controlled
// request context — the in-process equivalent of a client whose deadline
// expired or who hung up. RequestTimeout is disabled so the response
// observed is the handler's own (http.TimeoutHandler would race it with
// its 503).
func serveWithContext(t *testing.T, s *Server, ctx context.Context, target string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func noTimeoutConfig() Config {
	cfg := quietConfig()
	cfg.RequestTimeout = -1
	return cfg
}

// TestExpiredDeadlineAborts is the satellite contract: a request arriving
// with an already-expired deadline returns promptly with 499, increments
// the aborted counter, builds nothing — and leaves the cache's byte
// accounting consistent, so an identical follow-up request with a live
// context is served normally and a third one hits.
func TestExpiredDeadlineAborts(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := New(noTimeoutConfig())
	if _, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(16, 30)); err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	rec := serveWithContext(t, s, expired, "/traces/art/aggregate?p=0.3&slices=20")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("expired request took %v, want a prompt return", elapsed)
	}
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("expired request: status %d, want %d (body %q)", rec.Code, StatusClientClosedRequest, rec.Body.String())
	}

	st := s.CacheStats()
	if st.Aborted != 1 {
		t.Fatalf("aborted counter = %d after an expired request, want 1", st.Aborted)
	}
	if st.Scratch+st.Derived != 0 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("expired request left build debris in the cache: %+v", st)
	}

	// Identical follow-up with a live context: served, cached, accounted.
	rec = serveWithContext(t, s, context.Background(), "/traces/art/aggregate?p=0.3&slices=20")
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up request: status %d, want 200 (body %q)", rec.Code, rec.Body.String())
	}
	var resp aggregateJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Areas) == 0 {
		t.Fatal("follow-up request served an empty partition")
	}
	st = s.CacheStats()
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("follow-up build not accounted: %+v", st)
	}
	if st.Aborted != 1 {
		t.Fatalf("aborted counter moved to %d on a served request", st.Aborted)
	}

	// And the cached window actually hits.
	rec = serveWithContext(t, s, context.Background(), "/traces/art/aggregate?p=0.3&slices=20")
	if rec.Code != http.StatusOK {
		t.Fatalf("third request: status %d", rec.Code)
	}
	if st = s.CacheStats(); st.Hits != 1 {
		t.Fatalf("third request did not hit the cache: %+v", st)
	}
}

// TestExpiredDeadlineStillServesHits pins the cheap-path exception: a hit
// costs a map lookup, so even a dead request gets it (the write is
// discarded upstream; the point is the cache refuses no free work and
// aborts only builds).
func TestExpiredDeadlineStillServesHits(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := New(noTimeoutConfig())
	tr, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(16, 30))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := timeslice.New(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.cache.Get(context.Background(), tr, sl); err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	in, kind, err := s.cache.Get(expired, tr, sl)
	if err != nil || kind != BuildHit || in == nil {
		t.Fatalf("cached window under an expired ctx: (%v, %v, %v), want a hit", in, kind, err)
	}
}

// TestSingleflightDiesWhenAllWaitersCancel holds a build in place with the
// test hook and proves the detach semantics end to end: the leader's
// cancel alone does not kill the flight (a joiner still wants the result);
// only when the last waiter cancels does the flight's context die, the
// build abort, and both callers get cancellation errors — with nothing
// inserted into the cache and no goroutine left behind.
func TestSingleflightDiesWhenAllWaitersCancel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := New(noTimeoutConfig())
	tr, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(16, 30))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := timeslice.New(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}

	buildEntered := make(chan struct{})
	buildCtxDied := make(chan struct{})
	failpoint.EnableFunc(FailpointFlight, func(ctx context.Context) error {
		close(buildEntered)
		select {
		case <-ctx.Done():
			close(buildCtxDied)
		case <-time.After(30 * time.Second):
		}
		return nil
	})
	defer failpoint.Disable(FailpointFlight)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	joinerCtx, cancelJoiner := context.WithCancel(context.Background())
	defer cancelJoiner()

	type result struct {
		kind BuildKind
		err  error
	}
	leaderDone := make(chan result, 1)
	go func() {
		_, kind, err := s.cache.Get(leaderCtx, tr, sl)
		leaderDone <- result{kind, err}
	}()
	<-buildEntered // the leader is inside the (held) build

	joinerDone := make(chan result, 1)
	go func() {
		_, kind, err := s.cache.Get(joinerCtx, tr, sl)
		joinerDone <- result{kind, err}
	}()
	// Wait until the joiner has coalesced onto the flight.
	for i := 0; ; i++ {
		if s.cache.Snapshot().Coalesced == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("joiner never coalesced onto the in-flight build")
		}
		time.Sleep(time.Millisecond)
	}

	// First waiter (the leader's request) gives up: the flight must stay
	// alive for the joiner.
	cancelLeader()
	select {
	case <-buildCtxDied:
		t.Fatal("flight died on the leader's cancel while a joiner was still waiting")
	case <-time.After(100 * time.Millisecond):
	}

	// Last waiter gives up: now the flight's context must die, the build
	// abort, and both callers get cancellation errors.
	cancelJoiner()
	select {
	case <-buildCtxDied:
	case <-time.After(10 * time.Second):
		t.Fatal("flight context did not die after all waiters cancelled")
	}
	jr := <-joinerDone
	if !errors.Is(jr.err, context.Canceled) {
		t.Fatalf("joiner got (%v, %v), want context.Canceled", jr.kind, jr.err)
	}
	lr := <-leaderDone
	if !errors.Is(lr.err, context.Canceled) {
		t.Fatalf("leader got (%v, %v), want context.Canceled", lr.kind, lr.err)
	}

	st := s.cache.Snapshot()
	if st.Entries != 0 || st.Bytes != 0 || st.Scratch+st.Derived != 0 {
		t.Fatalf("abandoned flight left debris: %+v", st)
	}

	// The same window still builds cleanly afterwards.
	failpoint.Disable(FailpointFlight)
	if _, kind, err := s.cache.Get(context.Background(), tr, sl); err != nil || kind != BuildScratch {
		t.Fatalf("rebuild after abandoned flight: (%v, %v)", kind, err)
	}
}

// TestLiveRequestNotPoisonedByAbandonedFlight pins the retry semantics: a
// live request that runs into a flight all of whose waiters already
// cancelled must not inherit the dying build's context.Canceled (which the
// handler would misreport as 499 "client closed") — it waits out the
// abandoned flight's unwind and builds fresh.
func TestLiveRequestNotPoisonedByAbandonedFlight(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := New(noTimeoutConfig())
	tr, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(16, 30))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := timeslice.New(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}

	buildEntered := make(chan struct{}, 2)
	releaseBuild := make(chan struct{})
	var flightCtx context.Context
	failpoint.EnableFunc(FailpointFlight, func(ctx context.Context) error {
		flightCtx = ctx
		buildEntered <- struct{}{}
		<-releaseBuild // hold even past cancellation: pins the unwind window
		return nil
	})
	defer failpoint.Disable(FailpointFlight)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.cache.Get(leaderCtx, tr, sl)
		leaderDone <- err
	}()
	<-buildEntered

	// The sole waiter cancels: the flight is now abandoned but its build
	// is still unwinding (held by the hook).
	cancelLeader()
	for i := 0; flightCtx.Err() == nil; i++ {
		if i > 5000 {
			t.Fatal("flight context did not die after its only waiter cancelled")
		}
		time.Sleep(time.Millisecond)
	}

	// A live request arrives mid-unwind. It must end with a real Input.
	type result struct {
		in   interface{ MemoryBytes() int }
		kind BuildKind
		err  error
	}
	liveDone := make(chan result, 1)
	go func() {
		in, kind, err := s.cache.Get(context.Background(), tr, sl)
		liveDone <- result{in, kind, err}
	}()
	time.Sleep(20 * time.Millisecond) // let it park on the dying flight
	close(releaseBuild)               // the abandoned build finally unwinds

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned leader got %v, want context.Canceled", err)
	}
	lr := <-liveDone
	if lr.err != nil || lr.in == nil {
		t.Fatalf("live request got (%v, %v, %v), want a fresh build", lr.in, lr.kind, lr.err)
	}
	if st := s.cache.Snapshot(); st.Entries != 1 {
		t.Fatalf("live request's rebuild not cached: %+v", st)
	}
}

// TestSingleflightSurvivesLeaderCancel is the positive half of the detach
// semantics: the leader's request dies mid-build, the joiner stays — the
// build must complete, serve the joiner and land in the cache.
func TestSingleflightSurvivesLeaderCancel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := New(noTimeoutConfig())
	tr, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(16, 30))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := timeslice.New(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}

	buildEntered := make(chan struct{})
	releaseBuild := make(chan struct{})
	failpoint.EnableFunc(FailpointFlight, func(ctx context.Context) error {
		close(buildEntered)
		select {
		case <-releaseBuild:
		case <-ctx.Done():
		}
		return nil
	})
	defer failpoint.Disable(FailpointFlight)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.cache.Get(leaderCtx, tr, sl)
		leaderDone <- err
	}()
	<-buildEntered

	type result struct {
		kind BuildKind
		err  error
	}
	joinerDone := make(chan result, 1)
	go func() {
		_, kind, err := s.cache.Get(context.Background(), tr, sl)
		joinerDone <- result{kind, err}
	}()
	for i := 0; ; i++ {
		if s.cache.Snapshot().Coalesced == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("joiner never coalesced onto the in-flight build")
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	time.Sleep(20 * time.Millisecond) // let the leader's stake drop
	close(releaseBuild)

	jr := <-joinerDone
	if jr.err != nil || jr.kind != BuildCoalesced {
		t.Fatalf("joiner got (%v, %v), want a coalesced result", jr.kind, jr.err)
	}
	// The build runs on its flight, not on the leader's call: the
	// cancelled leader gets its own cancellation back at once, while the
	// build carries on for the joiner.
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader got %v, want context.Canceled", err)
	}
	if st := s.cache.Snapshot(); st.Entries != 1 {
		t.Fatalf("completed flight not cached: %+v", st)
	}
}

// TestTimedOutRequestAborts drives the real HTTP stack with a request
// timeout far shorter than the solve, proving expiry cancels engine work
// (the aborted counter moves) rather than merely reporting 503.
func TestTimedOutRequestAborts(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := quietConfig()
	cfg.RequestTimeout = time.Millisecond
	s := New(cfg)
	// A large |T| makes the scratch build + significant-p dichotomy take
	// well past the 1 ms budget.
	if _, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(24, 40)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/traces/art/significant?slices=64")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d (%s), want 503 from the timeout handler", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// The handler goroutine keeps running briefly past the 503; wait for
	// it to observe the cancelled context and record the abort.
	deadline := time.Now().Add(10 * time.Second)
	for s.CacheStats().Aborted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("timed-out request never recorded an abort: %+v", s.CacheStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentCancelledRequests mixes cancelled and live requests under
// -race: live ones must all succeed, and the suite-level leak guard
// proves cancelled ones released what they held.
func TestConcurrentCancelledRequests(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := New(noTimeoutConfig())
	if _, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(16, 30)); err != nil {
		t.Fatal(err)
	}

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 { // every third request is already dead
				c, cancel := context.WithCancel(context.Background())
				cancel()
				ctx = c
			}
			rec := serveWithContext(t, s, ctx, "/traces/art/significant?slices=25&eps=0.01")
			switch {
			case i%3 == 0 && rec.Code != StatusClientClosedRequest && rec.Code != http.StatusOK:
				// A pre-cancelled request may still be served from cache
				// (hit path) but must otherwise abort with 499.
				errs[i] = errors.New(rec.Body.String())
			case i%3 != 0 && rec.Code != http.StatusOK:
				errs[i] = errors.New(rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}
