package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/server/client"
	"ocelotl/internal/testutil"
)

// checkByteAccounting asserts the cache's global byte counter equals the
// sum over resident entries — the invariant overload, faults and races
// must not corrupt.
func checkByteAccounting(t *testing.T, c *InputCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += int64(el.Value.(*entry).bytes)
	}
	if sum != c.bytes {
		t.Errorf("byte accounting corrupt: entries sum to %d, counter says %d", sum, c.bytes)
	}
}

// quiesce waits until no build is in flight and the gate is idle, so
// post-test invariants aren't read mid-build (degrade keepalives outlive
// their requests by design).
func quiesce(t *testing.T, c *InputCache) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		flights := len(c.inflight)
		c.mu.Unlock()
		queued, inflight := 0, 0
		if c.gate != nil {
			inflight, queued = c.gate.Backlog()
		}
		if flights == 0 && inflight == 0 && queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("builds never quiesced: %d flights, gate %d/%d", flights, inflight, queued)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdFlight arms FailpointFlight to hold every build until the returned
// release is called (or the flight is cancelled), signalling entered as
// each build reaches it.
func holdFlight(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	in := make(chan struct{}, 8)
	held := make(chan struct{})
	failpoint.EnableFunc(FailpointFlight, func(ctx context.Context) error {
		in <- struct{}{}
		select {
		case <-held:
		case <-ctx.Done():
		}
		return nil
	})
	t.Cleanup(func() { failpoint.Disable(FailpointFlight) })
	var once sync.Once
	return in, func() { once.Do(func() { close(held) }) }
}

// awaitStakes waits until the one flight in progress holds exactly n
// stakes — after a request returns, its own stake drops asynchronously.
func awaitStakes(t *testing.T, c *InputCache, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		got := -1
		if len(c.inflight) == 1 {
			for _, f := range c.inflight {
				got = f.stakes
			}
		}
		c.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight stakes = %d (-1: not exactly one flight), want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkAdoptedBuildLands drives one request that answers with a preview
// (header = want) while its fine build is held, then — with the handler
// returned, its context done and no further request sent — releases the
// build and checks the adopted build alone lands it in the cache.
func checkAdoptedBuildLands(t *testing.T, s *Server, target, header, want string) {
	t.Helper()
	entered, release := holdFlight(t)
	before := s.CacheStats()
	ctx, cancel := context.WithCancel(context.Background())
	rec := serveWithContext(t, s, ctx, target)
	cancel()
	if rec.Code != http.StatusOK {
		t.Fatalf("preview request: status %d (%s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(header); got != want {
		t.Fatalf("%s = %q, want %q", header, got, want)
	}
	<-entered
	awaitStakes(t, s.cache, 1) // only the adoption's stake is left
	release()
	quiesce(t, s.cache)
	st := s.CacheStats()
	if st.Entries != before.Entries+1 || st.Scratch+st.Derived != before.Scratch+before.Derived+1 {
		t.Fatalf("adopted build did not land: entries %d→%d, builds %d→%d",
			before.Entries, st.Entries, before.Scratch+before.Derived, st.Scratch+st.Derived)
	}
	if st.Aborted != before.Aborted {
		t.Fatalf("aborted moved %d→%d", before.Aborted, st.Aborted)
	}
	checkByteAccounting(t, s.cache)
}

// TestGateFIFOAndShed drives the gate directly: capacity 1, queue 1. The
// second acquire queues, the third is shed with a positive Retry-After,
// and release hands the slot to the queued waiter in FIFO order.
func TestGateFIFOAndShed(t *testing.T) {
	g := newBuildGate(1, 1)
	release, err := g.Acquire(context.Background(), context.Background())
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		r, err := g.Acquire(context.Background(), context.Background())
		if err == nil {
			defer r()
		}
		got <- err
	}()
	// Wait for the second acquire to queue.
	for i := 0; ; i++ {
		if _, q := g.Backlog(); q == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}

	_, err = g.Acquire(context.Background(), context.Background())
	oe, ok := err.(*OverloadError)
	if !ok {
		t.Fatalf("third acquire got %v, want an OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("OverloadError.RetryAfter = %v, want > 0", oe.RetryAfter)
	}

	release()
	if err := <-got; err != nil {
		t.Fatalf("queued waiter got %v after release", err)
	}
}

// TestGateShedsDoomedDeadlines: a request whose deadline is shorter than
// the estimated wait is refused up front instead of queueing past its
// budget.
func TestGateShedsDoomedDeadlines(t *testing.T) {
	g := newBuildGate(1, 8)
	g.RecordBuild(10 * time.Second) // drive the EWMA far above any test deadline
	release, err := g.Acquire(context.Background(), context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	reqCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = g.Acquire(context.Background(), reqCtx)
	oe, ok := err.(*OverloadError)
	if !ok || !strings.Contains(oe.Reason, "deadline") {
		t.Fatalf("doomed acquire got %v, want a deadline-shed OverloadError", err)
	}
}

// TestShedReturns503WithRetryAfter is the HTTP contract: with one build
// slot held and a zero-length queue, a second (non-coalescing) build
// request is shed as 503 carrying Retry-After, and the shed counter
// moves. The held build completes normally afterwards.
func TestShedReturns503WithRetryAfter(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := quietConfig()
	cfg.MaxConcurrentBuilds = 1
	cfg.MaxQueuedBuilds = -1 // no queue: saturation sheds immediately
	cfg.DegradeAfter = -1    // isolate shedding from degradation
	s, ts := newTestServer(t, cfg)

	entered := make(chan struct{}, 1) // buffered: the signal must not be lost if the build gets there first
	release := make(chan struct{})
	failpoint.EnableFunc(FailpointFlight, func(ctx context.Context) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	defer failpoint.Disable(FailpointFlight)

	firstDone := make(chan int, 1)
	go func() {
		resp, _ := get(t, ts.URL+"/traces/art/aggregate?slices=20&p=0.4")
		firstDone <- resp.StatusCode
	}()
	<-entered // the lone slot is now held mid-build

	resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=25&p=0.4")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	} else if secs, err := time.ParseDuration(ra + "s"); err != nil || secs < time.Second {
		t.Fatalf("Retry-After %q, want ≥ 1 whole second", ra)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("held build finished with %d, want 200", code)
	}
	if st := s.CacheStats(); st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1 (%+v)", st.Shed, st)
	}
}

// TestFlightPanicFailsWaitersWithoutDeadlock: a panicking build must turn
// into a 500 for every waiter — the flight unwinds, the singleflight
// entry clears, the panic counter moves — and the same window then
// rebuilds cleanly once the failpoint disarms.
func TestFlightPanicFailsWaitersWithoutDeadlock(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, quietConfig())

	if err := failpoint.Enable(FailpointFlight, "1*panic(chaos)->off"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable(FailpointFlight)

	resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=20&p=0.4")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking build: status %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Fatalf("500 body %q does not say the build panicked", body)
	}
	if st := s.CacheStats(); st.Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", st.Panics)
	}

	// The failpoint's first term is spent: the retry must succeed, proving
	// the panic left no slot leaked and no flight entry wedged.
	resp, body = get(t, ts.URL+"/traces/art/aggregate?slices=20&p=0.4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild after panic: status %d (%s), want 200", resp.StatusCode, body)
	}
	checkByteAccounting(t, s.cache)
}

// TestHandlerPanicRecovered exercises the middleware half of panic
// containment: a panic above the flight (in the handler goroutine) is
// answered as a 500, not a dropped connection, and counted.
func TestHandlerPanicRecovered(t *testing.T) {
	s := New(quietConfig())
	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler chaos")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if st := s.CacheStats(); st.Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", st.Panics)
	}
}

// TestReadyzFlipsWhileDraining: /readyz is the balancer's routing signal —
// 200 in service, 503 once SetDraining(true), back to 200 if draining is
// cancelled. /healthz stays 200 throughout (the process is alive either
// way).
func TestReadyzFlipsWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, quietConfig())
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	s.SetDraining(true)
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz while draining: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	s.SetDraining(false)
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after drain cancelled: %d", resp.StatusCode)
	}
}

// warmFullWindow builds and caches the trace's full window at the given
// |T| and returns its exact bounds, so sub-window requests have a
// covering preview to degrade to.
func warmFullWindow(t *testing.T, ts *httptest.Server, slices int) windowJSON {
	t.Helper()
	resp, body := get(t, fmt.Sprintf("%s/traces/art/aggregate?slices=%d&p=0.4", ts.URL, slices))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming full window: status %d (%s)", resp.StatusCode, body)
	}
	var agg aggregateJSON
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	return agg.Window
}

// subWindowQuery returns an aggregate URL for the middle half of the
// warmed window — covered by it, but not identical to it.
func subWindowQuery(w windowJSON) string {
	width := w.End - w.Start
	return fmt.Sprintf("aggregate?slices=10&p=0.4&lo=%.17g&hi=%.17g", w.Start+0.25*width, w.Start+0.75*width)
}

// TestDegradeSlowBuildServesPreview: with the fine build held past the
// degrade deadline, /aggregate answers 200 from the covering preview,
// marked X-Ocelotl-Degraded: slow-build — and the fine build survives the
// handler's return, so the same URL later serves the real answer.
func TestDegradeSlowBuildServesPreview(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := quietConfig()
	cfg.DegradeAfter = 20 * time.Millisecond
	s, ts := newTestServer(t, cfg)
	// ≥ previewCoarsenMin slices, so the preview is a genuine factor-2
	// coarsening rather than the covering entry itself.
	full := warmFullWindow(t, ts, 40)

	failpoint.EnableFunc(FailpointFlight, func(ctx context.Context) error {
		select {
		case <-time.After(400 * time.Millisecond):
		case <-ctx.Done():
		}
		return nil
	})
	defer failpoint.Disable(FailpointFlight)

	resp, body := get(t, ts.URL+"/traces/art/"+subWindowQuery(full))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d (%s)", resp.StatusCode, body)
	}
	if reason := resp.Header.Get(degradedHeader); reason != degradeSlowBuild {
		t.Fatalf("%s = %q, want %q", degradedHeader, reason, degradeSlowBuild)
	}
	if b := resp.Header.Get(buildHeader); b != string(BuildPreview) {
		t.Fatalf("degraded build header = %q, want %q", b, BuildPreview)
	}
	var agg aggregateJSON
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	if !agg.Preview {
		t.Fatalf("degraded body not marked preview: %s", body)
	}
	if agg.Window.Start != full.Start || agg.Window.End != full.End || agg.Window.Slices != full.Slices/2 {
		t.Fatalf("degraded window %+v is not the half-resolution overview of %+v", agg.Window, full)
	}
	if st := s.CacheStats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}

	// The background keep-alive must land the fine window in the cache.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := get(t, ts.URL+"/traces/art/"+subWindowQuery(full))
		if resp.Header.Get(degradedHeader) == "" && resp.Header.Get(buildHeader) == string(BuildHit) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fine build never completed in the background after a degraded answer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	quiesce(t, s.cache)
	checkByteAccounting(t, s.cache)
}

// TestDegradeAdoptsWithoutFollowUp: a degraded slow-build answer keeps
// its fine build alive after the request is gone, with no re-request to
// join the flight — the build lands in the cache on its own.
func TestDegradeAdoptsWithoutFollowUp(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := quietConfig()
	cfg.DegradeAfter = 20 * time.Millisecond
	s, ts := newTestServer(t, cfg)
	full := warmFullWindow(t, ts, 40)
	checkAdoptedBuildLands(t, s, "/traces/art/"+subWindowQuery(full), degradedHeader, degradeSlowBuild)
}

// TestDegradeFaultServesPreview: a fine build that dies on an injected
// (retryable) fault degrades to the preview instead of 500ing, marked
// with reason "fault".
func TestDegradeFaultServesPreview(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, quietConfig())
	full := warmFullWindow(t, ts, 20)

	if err := failpoint.Enable(FailpointFlight, "1*error(chaos)->off"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable(FailpointFlight)

	resp, body := get(t, ts.URL+"/traces/art/"+subWindowQuery(full))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted request: status %d (%s)", resp.StatusCode, body)
	}
	if reason := resp.Header.Get(degradedHeader); reason != degradeFault {
		t.Fatalf("%s = %q, want %q", degradedHeader, reason, degradeFault)
	}
	if st := s.CacheStats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}
	// Without a covering preview the same fault is a plain 500: unload
	// everything the preview could come from first.
	if err := failpoint.Enable(FailpointFlight, "1*error(chaos)->off"); err != nil {
		t.Fatal(err)
	}
	s.cache.PurgeTrace("art", ^uint64(0))
	resp, body = get(t, ts.URL+"/traces/art/"+subWindowQuery(full))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted request without preview: status %d (%s), want 500", resp.StatusCode, body)
	}
}

// TestDegradedBodyMatchesRefinePreview is the byte-identity acceptance
// criterion: the degraded body must be exactly the preview body the
// refine=1 path serves for the same window over the same warmed cache.
func TestDegradedBodyMatchesRefinePreview(t *testing.T) {
	cfg := quietConfig()
	cfg.DegradeAfter = 20 * time.Millisecond

	// Server A: warm the full window, hold the fine build, get degraded.
	_, tsA := newTestServer(t, cfg)
	full := warmFullWindow(t, tsA, 20)
	failpoint.EnableFunc(FailpointFlight, func(ctx context.Context) error {
		select {
		case <-time.After(400 * time.Millisecond):
		case <-ctx.Done():
		}
		return nil
	})
	respA, degradedBody := get(t, tsA.URL+"/traces/art/"+subWindowQuery(full))
	failpoint.Disable(FailpointFlight)
	if respA.StatusCode != http.StatusOK || respA.Header.Get(degradedHeader) == "" {
		t.Fatalf("server A: status %d, degraded %q", respA.StatusCode, respA.Header.Get(degradedHeader))
	}

	// Server B: identical warm state, same window via refine=1.
	_, tsB := newTestServer(t, cfg)
	fullB := warmFullWindow(t, tsB, 20)
	if fullB != full {
		t.Fatalf("servers warmed different windows: %+v vs %+v", full, fullB)
	}
	respB, refineBody := get(t, tsB.URL+"/traces/art/"+subWindowQuery(full)+"&refine=1")
	if respB.StatusCode != http.StatusOK || respB.Header.Get(refineHeader) != "pending" {
		t.Fatalf("server B: status %d, refine %q", respB.StatusCode, respB.Header.Get(refineHeader))
	}
	if string(degradedBody) != string(refineBody) {
		t.Fatalf("degraded body differs from the refine preview:\ndegraded: %s\nrefine:   %s", degradedBody, refineBody)
	}
}

// TestDeleteRacesInflightBuilds hammers aggregates while the trace is
// concurrently unloaded and reloaded. Every response must be 200 or 404
// (plus 499/503 under extreme scheduling), the registry and cache must
// end consistent, and nothing may leak — the generation purge is what
// keeps in-flight builds of dead trace epochs from resurrecting entries.
func TestDeleteRacesInflightBuilds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, quietConfig())

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/traces/art", nil)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			// Reload in-process: same id, fresh generation.
			s.Registry().LoadTrace("art", mpisim.ArtificialSized(24, 40))
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const workers = 6
	const perWorker = 15
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < perWorker; i++ {
				u := fmt.Sprintf("%s/traces/art/aggregate?slices=%d&pan=%d&p=0.4",
					ts.URL, 10+rng.Intn(3)*5, rng.Intn(4))
				resp, err := http.Get(u)
				if err != nil {
					errs[g] = err
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusNotFound,
					StatusClientClosedRequest, http.StatusServiceUnavailable:
				default:
					errs[g] = fmt.Errorf("%s: status %d", u, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}
	quiesce(t, s.cache)
	checkByteAccounting(t, s.cache)
	// The cache must hold nothing from purged generations: a final load +
	// request must build fresh or hit only current-generation entries.
	s.Registry().LoadTrace("art", mpisim.ArtificialSized(24, 40))
	if resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=10&p=0.4"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-churn request: status %d (%s)", resp.StatusCode, body)
	}
}

// TestChaosSoak is the acceptance soak: failpoints firing across the
// pipeline (flight faults, input-fill delays, coarsen faults), a tiny
// build gate, an aggressive degrade deadline, and concurrent clients
// retrying sheds through the client package. Every response must come
// from the small legal set, every 503 must carry Retry-After, and the
// server must end with no leaked goroutines, no wedged flights, and
// consistent byte accounting. Run under -race in CI.
func TestChaosSoak(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := quietConfig()
	cfg.MaxConcurrentBuilds = 2
	cfg.MaxQueuedBuilds = 2
	cfg.DegradeAfter = 25 * time.Millisecond
	cfg.RequestTimeout = time.Minute
	s, ts := newTestServer(t, cfg)

	// Warm the full window so degradation has a preview to reach for.
	warmFullWindow(t, ts, 20)

	for point, spec := range map[string]string{
		FailpointFlight:         "15%error(chaos)",
		core.FailpointInputFill: "10%delay(40ms)",
		core.FailpointCoarsen:   "5%error(chaos)",
	} {
		if err := failpoint.EnableSeeded(point, spec, 42); err != nil {
			t.Fatal(err)
		}
	}
	defer failpoint.DisableAll()

	c := client.New(ts.URL)
	c.Seed(7)
	c.MaxRetries = 2
	c.BaseBackoff = 5 * time.Millisecond
	c.MaxBackoff = 50 * time.Millisecond

	queries := []url.Values{
		{"slices": {"20"}, "p": {"0.4"}},
		{"slices": {"20"}, "p": {"0.4"}, "pan": {"1"}},
		{"slices": {"15"}, "p": {"0.3"}},
		{"slices": {"10"}, "p": {"0.5"}, "pan": {"2"}},
		{"slices": {"12"}, "p": {"0.6"}},
		{"slices": {"0"}},          // strict validation: 400
		{"lo": {"9"}, "hi": {"1"}}, // strict validation: 400
	}
	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		StatusClientClosedRequest:        true,
		http.StatusInternalServerError:   true,
		http.StatusServiceUnavailable:    true,
	}

	const workers = 6
	const perWorker = 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	var mu sync.Mutex
	statusSeen := map[int]int{}
	degradedSeen := 0
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < perWorker; i++ {
				q := queries[rng.Intn(len(queries))]
				res, err := c.Get(context.Background(), "/traces/art/aggregate", q)
				if err != nil {
					errs[g] = fmt.Errorf("query %v: %v", q, err)
					return
				}
				for _, at := range res.Attempts {
					if !allowed[at.Status] {
						errs[g] = fmt.Errorf("query %v: illegal status %d", q, at.Status)
						return
					}
					if at.Status == http.StatusServiceUnavailable && at.RetryAfter <= 0 {
						errs[g] = fmt.Errorf("query %v: 503 without Retry-After", q)
						return
					}
					mu.Lock()
					statusSeen[at.Status]++
					mu.Unlock()
				}
				if res.Degraded() != "" {
					mu.Lock()
					degradedSeen++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}

	// The soak must actually have exercised the chaos: at least one
	// failpoint fired, and the strict-validation queries 400ed.
	fired := int64(0)
	for _, p := range []string{FailpointFlight, core.FailpointInputFill, core.FailpointCoarsen} {
		fired += failpoint.Hits(p)
	}
	if fired == 0 {
		t.Fatal("chaos soak ran without a single failpoint firing")
	}
	if statusSeen[http.StatusBadRequest] == 0 {
		t.Fatalf("no 400s recorded across %v", statusSeen)
	}
	t.Logf("soak statuses: %v, degraded responses: %d, failpoint hits: %d", statusSeen, degradedSeen, fired)

	failpoint.DisableAll()
	quiesce(t, s.cache)
	checkByteAccounting(t, s.cache)

	// With chaos disarmed the server serves normally — nothing wedged.
	resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=20&p=0.4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-soak request: status %d (%s)", resp.StatusCode, body)
	}
	if st := s.CacheStats(); st.Panics != 0 {
		t.Logf("panics recovered during soak: %d", st.Panics)
	}
}
