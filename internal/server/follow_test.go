package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/live"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/testutil"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// followEvents returns n deterministic time-ordered events over the
// followHeader tables — the stream a live writer flushes in prefixes.
func followEvents(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		s := float64(i) * 0.02
		evs[i] = trace.Event{Resource: trace.ResourceID(i % 3), State: trace.StateID(i % 2),
			Start: s, End: s + 0.05}
	}
	return evs
}

func followHeader() traceio.Header {
	return traceio.Header{Resources: []string{"A/a0", "A/a1", "B/b0"},
		States: []string{"run", "wait"}, Start: 0, End: 10}
}

// liveWriter appends flushed batches to a trace file the way a live
// tracer would, keeping the stream open between batches.
type liveWriter struct {
	t *testing.T
	f *os.File
	w traceio.Writer
}

func newLiveWriter(t *testing.T, path string) *liveWriter {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traceio.NewWriter(f, traceio.FormatBinary, followHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := traceio.Flush(w); err != nil {
		t.Fatal(err)
	}
	lw := &liveWriter{t: t, f: f, w: w}
	t.Cleanup(func() { lw.f.Close() })
	return lw
}

func (lw *liveWriter) append(evs []trace.Event) {
	lw.t.Helper()
	for _, e := range evs {
		if err := lw.w.WriteEvent(e); err != nil {
			lw.t.Fatal(err)
		}
	}
	if err := traceio.Flush(lw.w); err != nil {
		lw.t.Fatal(err)
	}
}

// followLoad POSTs a follow-mode load and returns the created Info.
func followLoad(t *testing.T, ts *httptest.Server, id, path string, pollMs int) Info {
	t.Helper()
	body, _ := json.Marshal(loadRequest{ID: id, Path: path, Follow: true,
		PollMs: pollMs, LiveSlices: 10})
	resp, err := http.Post(ts.URL+"/traces", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := readAll(resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("follow load: status %d (%s)", resp.StatusCode, raw)
	}
	var info Info
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Follow == nil {
		t.Fatalf("follow load response has no follow block: %s", raw)
	}
	return info
}

func readAll(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// waitForFollow polls the trace's Info until it has ingested at least
// `events` events — the per-round barrier in the live tests: once the
// writer stops, Events converges and the published snapshot is stable.
func waitForFollow(t *testing.T, ts *httptest.Server, id string, events int) Info {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last []byte
	for time.Now().Before(deadline) {
		resp, body := get(t, ts.URL+"/traces/"+id)
		last = body
		if resp.StatusCode == http.StatusOK {
			var info Info
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatal(err)
			}
			if info.Events >= events {
				return info
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("trace %s never reached %d events (last info: %s)", id, events, last)
	return Info{}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// liveQueryPath is the explicit-window form of fi's live window: per the
// FollowInfo contract it reproduces the same floats on any server.
func liveQueryPath(id string, fi *FollowInfo) string {
	return fmt.Sprintf("/traces/%s/aggregate?p=0.4&lo=%s&hi=%s&slices=%d&pan=%d",
		id, fmtFloat(fi.Lo), fmtFloat(fi.Hi), fi.Slices, fi.Pan)
}

// TestFollowE2EByteIdentity is the acceptance scenario: a daemon serving
// a trace that is still being written answers queries whose live window
// advances monotonically with the ingestion horizon, and every response
// is byte-identical to (a) the explicit-window form of the same query on
// the same server and (b) a scratch batch server loaded with exactly the
// events ingested at that tick.
func TestFollowE2EByteIdentity(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bin")
	all := followEvents(400)
	lw := newLiveWriter(t, path)
	lw.append(all[:80])

	s := New(quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.StopFollowers()

	info := followLoad(t, ts, "live", path, 10)
	prevPan, prevHorizon := info.Follow.Pan, info.Follow.Horizon

	written := 80
	for _, cut := range []int{160, 240, 320, 400} {
		lw.append(all[written:cut])
		written = cut
		info = waitForFollow(t, ts, "live", cut)
		fi := info.Follow
		if fi == nil {
			t.Fatalf("cut %d: follow block disappeared", cut)
		}
		if fi.Pan < prevPan || fi.Horizon < prevHorizon {
			t.Fatalf("cut %d: live window went backwards: pan %d→%d, horizon %v→%v",
				cut, prevPan, fi.Pan, prevHorizon, fi.Horizon)
		}
		prevPan, prevHorizon = fi.Pan, fi.Horizon

		// live=1 and its explicit-window twin on the follow server.
		rLive, bLive := get(t, ts.URL+"/traces/live/aggregate?p=0.4&live=1")
		rExp, bExp := get(t, ts.URL+liveQueryPath("live", fi))
		if rLive.StatusCode != http.StatusOK || rExp.StatusCode != http.StatusOK {
			t.Fatalf("cut %d: live=%d (%s), explicit=%d (%s)",
				cut, rLive.StatusCode, bLive, rExp.StatusCode, bExp)
		}
		if !bytes.Equal(bLive, bExp) {
			t.Fatalf("cut %d: live=1 body differs from explicit window:\n%s\n%s", cut, bLive, bExp)
		}

		// Scratch batch server over exactly the ingested prefix, same id
		// so the bodies are comparable byte for byte.
		scratchPath := filepath.Join(dir, fmt.Sprintf("prefix%d.bin", cut))
		hdr := followHeader()
		if err := traceio.WriteFile(scratchPath, &trace.Trace{
			Resources: hdr.Resources, States: hdr.States,
			Events: all[:cut], Start: hdr.Start, End: hdr.End}); err != nil {
			t.Fatal(err)
		}
		s2 := New(quietConfig())
		ts2 := httptest.NewServer(s2.Handler())
		if _, err := s2.Registry().Load("live", scratchPath); err != nil {
			t.Fatal(err)
		}
		rS, bS := get(t, ts2.URL+liveQueryPath("live", fi))
		if rS.StatusCode != http.StatusOK {
			t.Fatalf("cut %d: scratch server: status %d (%s)", cut, rS.StatusCode, bS)
		}
		if !bytes.Equal(bLive, bS) {
			t.Fatalf("cut %d: follow body differs from scratch build:\n%s\n%s", cut, bLive, bS)
		}
		ts2.Close()
		if err := s2.Registry().CloseAll(); err != nil {
			t.Fatal(err)
		}
	}
	if info.Follow.Pan <= -10+1 {
		t.Fatalf("live window never advanced: final pan %d", info.Follow.Pan)
	}
	if info.Follow.Ticks == 0 {
		t.Fatal("no ingestion ticks recorded")
	}

	// Tear down through the HTTP path: DELETE stops the follower.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/traces/live", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", dresp.StatusCode)
	}
	quiesce(t, s.cache)
	checkByteAccounting(t, s.cache)
}

// TestFollowHorizonGuard: windows ending past the ingestion horizon are
// refused (they would cache unsealed values), and live=1 is only legal on
// follow-loaded traces.
func TestFollowHorizonGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bin")
	lw := newLiveWriter(t, path)
	all := followEvents(100)
	lw.append(all)

	s, ts := newTestServer(t, quietConfig()) // preloads batch trace "art"
	defer s.StopFollowers()
	info := followLoad(t, ts, "live", path, 10)
	fi := info.Follow

	past := fmt.Sprintf("%s/traces/live/aggregate?p=0.4&lo=%s&hi=%s&slices=4",
		ts.URL, fmtFloat(fi.Horizon), fmtFloat(fi.Horizon+4))
	if resp, body := get(t, past); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("window past horizon: status %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, body := get(t, ts.URL+"/traces/art/aggregate?p=0.4&live=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("live=1 on a batch trace: status %d (%s), want 400", resp.StatusCode, body)
	}
	// A sealed window (end ≤ horizon) is admitted.
	sealed := fmt.Sprintf("%s/traces/live/aggregate?p=0.4&lo=0&hi=%s&slices=4",
		ts.URL, fmtFloat(fi.Horizon))
	if resp, body := get(t, sealed); resp.StatusCode != http.StatusOK {
		t.Fatalf("sealed window: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestFollowDeleteStopsIngestion: DELETE on a follow trace stops the
// follower loop before the trace is removed — later appends are never
// ingested, the id stays 404, and nothing leaks.
func TestFollowDeleteStopsIngestion(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bin")
	all := followEvents(300)
	lw := newLiveWriter(t, path)
	lw.append(all[:100])

	s := New(quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	followLoad(t, ts, "live", path, 5)
	lw.append(all[100:200])
	waitForFollow(t, ts, "live", 200)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/traces/live", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", dresp.StatusCode)
	}

	// The loop is gone: appending more events must change nothing.
	lw.append(all[200:])
	time.Sleep(50 * time.Millisecond)
	if resp, _ := get(t, ts.URL+"/traces/live"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace resurrected after DELETE: status %d", resp.StatusCode)
	}
	s.followMu.Lock()
	n := len(s.followers)
	s.followMu.Unlock()
	if n != 0 {
		t.Fatalf("%d followers tracked after DELETE, want 0", n)
	}
	quiesce(t, s.cache)
	checkByteAccounting(t, s.cache)
}

// TestFollowDrainParksSnapshots: StopFollowers (the daemon drain path)
// halts ingestion but keeps serving the last published snapshot.
func TestFollowDrainParksSnapshots(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.bin"), filepath.Join(dir, "b.bin")
	all := followEvents(200)
	lwa, lwb := newLiveWriter(t, pa), newLiveWriter(t, pb)
	lwa.append(all[:100])
	lwb.append(all[:150])

	s := New(quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	followLoad(t, ts, "a", pa, 5)
	followLoad(t, ts, "b", pb, 5)
	waitForFollow(t, ts, "a", 100)
	waitForFollow(t, ts, "b", 150)

	s.StopFollowers()
	lwa.append(all[100:]) // nobody is listening anymore
	time.Sleep(30 * time.Millisecond)

	infoA := waitForFollow(t, ts, "a", 100)
	if infoA.Events != 100 {
		t.Fatalf("drained trace kept ingesting: %d events, want 100", infoA.Events)
	}
	if resp, body := get(t, ts.URL+"/traces/a/aggregate?p=0.4&live=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("parked snapshot not servable: status %d (%s)", resp.StatusCode, body)
	}
	if err := s.Registry().CloseAll(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowCancelInjection tears the follower down at randomized points
// while a writer appends and clients query the live window — the
// DELETE/ingestion/query races must never leak a goroutine or corrupt
// cache byte accounting.
func TestFollowCancelInjection(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 4; round++ {
		func() {
			dir := t.TempDir()
			path := filepath.Join(dir, "live.bin")
			all := followEvents(500)
			lw := newLiveWriter(t, path)
			lw.append(all[:50])

			s := New(quietConfig())
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.StopFollowers()
			followLoad(t, ts, "live", path, 2)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // writer
				defer wg.Done()
				for next := 70; next <= len(all); next += 20 {
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
					}
					lw.append(all[next-20 : next])
				}
			}()
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() { // querier
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						resp, body := get(t, ts.URL+"/traces/live/aggregate?p=0.4&live=1")
						if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
							t.Errorf("round %d: live query status %d (%s)", round, resp.StatusCode, body)
							return
						}
					}
				}()
			}

			time.Sleep(time.Duration(5+rng.Intn(25)) * time.Millisecond)
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/traces/live", nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusNoContent {
				t.Fatalf("round %d: DELETE status %d", round, dresp.StatusCode)
			}
			close(stop)
			wg.Wait()
			quiesce(t, s.cache)
			checkByteAccounting(t, s.cache)
		}()
	}
}

// TestChaosSoakFollow arms failpoints on the follow ingestion path — the
// tail reader and the index extend — while a writer streams batches and
// clients hammer the live window. Faults may delay ingestion but must
// never lose an event: once the failpoints disarm, the follower converges
// on exactly the written stream, still byte-identical to a scratch build.
// Runs under -race in CI's chaos step (name matches the TestChaosSoak
// pattern).
func TestChaosSoakFollow(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bin")
	all := followEvents(600)
	lw := newLiveWriter(t, path)
	lw.append(all[:100])

	s := New(quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.StopFollowers()
	followLoad(t, ts, "live", path, 3)

	if err := failpoint.EnableSeeded(traceio.FailpointTail, "20%error(chaos)", 42); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.EnableSeeded(microscopic.FailpointExtend, "20%error(chaos)", 43); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := get(t, ts.URL+"/traces/live/aggregate?p=0.4&live=1")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("querier %d: status %d (%s)", g, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	for next := 125; next <= len(all); next += 25 {
		lw.append(all[next-25 : next])
		time.Sleep(3 * time.Millisecond)
	}

	// Disarm and converge: every written event must be ingested — armed
	// faults delayed ticks, they may not have dropped events.
	failpoint.DisableAll()
	info := waitForFollow(t, ts, "live", len(all))
	close(stop)
	wg.Wait()
	if info.Events != len(all) {
		t.Fatalf("event loss under chaos: %d ingested, want %d", info.Events, len(all))
	}

	scratchPath := filepath.Join(dir, "scratch.bin")
	hdr := followHeader()
	if err := traceio.WriteFile(scratchPath, &trace.Trace{
		Resources: hdr.Resources, States: hdr.States,
		Events: all, Start: hdr.Start, End: hdr.End}); err != nil {
		t.Fatal(err)
	}
	s2 := New(quietConfig())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if _, err := s2.Registry().Load("live", scratchPath); err != nil {
		t.Fatal(err)
	}
	_, bFollow := get(t, ts.URL+liveQueryPath("live", info.Follow))
	_, bScratch := get(t, ts2.URL+liveQueryPath("live", info.Follow))
	if !bytes.Equal(bFollow, bScratch) {
		t.Fatalf("post-chaos body differs from scratch build:\n%s\n%s", bFollow, bScratch)
	}
	if err := s2.Registry().CloseAll(); err != nil {
		t.Fatal(err)
	}
	quiesce(t, s.cache)
	checkByteAccounting(t, s.cache)
}

// TestChaosSoakFollowDiskIndex is TestChaosSoakFollow over a disk index
// with its chunk cache off, so every tick's advance reads chunks from the
// store — and half of those reads fail. A tick whose advance fails after
// its Extend succeeded must keep its batch for the retry: once the
// failpoint disarms, the follower converges on exactly the written
// stream, byte-identical to a scratch build.
func TestChaosSoakFollowDiskIndex(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bin")
	all := followEvents(600)
	lw := newLiveWriter(t, path)
	lw.append(all[:100])

	cfg := quietConfig()
	cfg.Index = microscopic.IndexOptions{Mode: microscopic.IndexDisk, Dir: t.TempDir(),
		Store: eventstore.Options{ChunkCacheBytes: -1}}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.StopFollowers()
	followLoad(t, ts, "live", path, 3)

	if err := failpoint.EnableSeeded(eventstore.FailpointRead, "50%error(chaos)", 44); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	// Queries may fail while store reads do (a miss builds from the
	// store); they must never see anything but 200 or 500.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := get(t, ts.URL+"/traces/live/aggregate?p=0.4&live=1")
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
					t.Errorf("querier %d: status %d (%s)", g, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	for next := 125; next <= len(all); next += 25 {
		lw.append(all[next-25 : next])
		time.Sleep(3 * time.Millisecond)
	}

	failpoint.DisableAll()
	info := waitForFollow(t, ts, "live", len(all))
	close(stop)
	wg.Wait()
	if info.Events != len(all) {
		t.Fatalf("event loss under store read faults: %d ingested, want %d", info.Events, len(all))
	}

	scratchPath := filepath.Join(dir, "scratch.bin")
	hdr := followHeader()
	if err := traceio.WriteFile(scratchPath, &trace.Trace{
		Resources: hdr.Resources, States: hdr.States,
		Events: all, Start: hdr.Start, End: hdr.End}); err != nil {
		t.Fatal(err)
	}
	s2 := New(quietConfig())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if _, err := s2.Registry().Load("live", scratchPath); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{liveQueryPath("live", info.Follow), "/traces/live/aggregate?p=0.4&lo=0&hi=10&slices=10"} {
		rF, bFollow := get(t, ts.URL+q)
		_, bScratch := get(t, ts2.URL+q)
		if rF.StatusCode != http.StatusOK || !bytes.Equal(bFollow, bScratch) {
			t.Fatalf("%s: post-chaos body (status %d) differs from scratch build:\n%s\n%s", q, rF.StatusCode, bFollow, bScratch)
		}
	}
	s.StopFollowers()
	if err := s2.Registry().CloseAll(); err != nil {
		t.Fatal(err)
	}
	quiesce(t, s.cache)
	checkByteAccounting(t, s.cache)
	if err := s.Registry().CloseAll(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowFarHorizon: an event start so far past the trace start that
// the live grid cannot place a sealed window at it (1e19 is past 2^63
// slices of width 1) must neither hang a load nor a tick. In the flushed
// prefix it fails the load; in a later batch it parks the follower with
// the last good snapshot still served, and DELETE still returns.
func TestFollowFarHorizon(t *testing.T) {
	within := func(t *testing.T, what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return", what)
		}
	}
	for _, h := range []float64{1e19, 1e300, math.MaxFloat64} {
		far := trace.Event{Resource: 1, State: 0, Start: h, End: h}
		t.Run(fmtFloat(h), func(t *testing.T) {
			dir := t.TempDir()
			s := New(quietConfig())
			defer s.StopFollowers()
			defer s.Registry().CloseAll()

			// In the prefix: the load fails.
			pre := filepath.Join(dir, "prefix.bin")
			newLiveWriter(t, pre).append(append(followEvents(50), far))
			var loadErr error
			within(t, "follow load", func() { _, loadErr = s.FollowTrace(context.Background(), "pre", pre) })
			if loadErr == nil || !errors.Is(loadErr, live.ErrHorizon) {
				t.Fatalf("follow load with a far event start: err %v, want ErrHorizon", loadErr)
			}

			// In a later batch: the follower parks.
			path := filepath.Join(dir, "live.bin")
			lw := newLiveWriter(t, path)
			lw.append(followEvents(50))
			before, err := s.startFollow(context.Background(), loadRequest{ID: "live", Path: path, PollMs: 2, LiveSlices: 10})
			if err != nil {
				t.Fatal(err)
			}
			s.followMu.Lock()
			f := s.followers["live"]
			s.followMu.Unlock()
			lw.append([]trace.Event{far})
			within(t, "the follower's park", func() { <-f.done })
			after, _ := s.reg.Get("live")
			if after.Events != before.Events || after.follow.horizon != before.follow.horizon {
				t.Fatalf("parked follower moved: events %d→%d, horizon %v→%v",
					before.Events, after.Events, before.follow.horizon, after.follow.horizon)
			}
			rec := httptest.NewRecorder()
			within(t, "DELETE", func() {
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/traces/live", nil))
			})
			if rec.Code != http.StatusNoContent {
				t.Fatalf("DELETE: status %d (%s)", rec.Code, rec.Body)
			}
		})
	}
}

// TestFollowLiveSlicesCap: a follow load whose live grid is finer than
// the server's slice cap is refused with 400 before anything is built —
// every live=1 query on it would be refused anyway — while a grid at the
// cap loads.
func TestFollowLiveSlicesCap(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := filepath.Join(t.TempDir(), "live.bin")
	newLiveWriter(t, path).append(followEvents(100))
	cfg := quietConfig()
	cfg.MaxSlices = 16
	s, ts := newTestServer(t, cfg)
	defer s.StopFollowers()

	load := func(id string, slices int) (int, []byte) {
		body, _ := json.Marshal(loadRequest{ID: id, Path: path, Follow: true, PollMs: 10, LiveSlices: slices})
		resp, err := http.Post(ts.URL+"/traces", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := readAll(resp)
		return resp.StatusCode, raw
	}
	if code, raw := load("over", 64); code != http.StatusBadRequest {
		t.Fatalf("live_slices over the cap: status %d (%s), want 400", code, raw)
	}
	if _, ok := s.Registry().Get("over"); ok {
		t.Fatal("the refused follow load registered its trace")
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("the refused follow load seeded the cache: %d entries", st.Entries)
	}
	if code, raw := load("at", 16); code != http.StatusCreated {
		t.Fatalf("live_slices at the cap: status %d (%s), want 201", code, raw)
	}
	if resp, body := get(t, ts.URL+"/traces/at/aggregate?p=0.4&live=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("live=1 at the cap: status %d (%s)", resp.StatusCode, body)
	}
}

// followerOf returns id's running follower.
func followerOf(t *testing.T, s *Server, id string) *follower {
	t.Helper()
	s.followMu.Lock()
	defer s.followMu.Unlock()
	f := s.followers[id]
	if f == nil {
		t.Fatalf("no follower for %q", id)
	}
	return f
}

// horizonWithin waits up to d for id's published horizon to reach h.
func horizonWithin(s *Server, id string, h float64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		if tr, ok := s.Registry().Get(id); ok && tr.follow != nil && tr.follow.horizon >= h {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowWakesOnWrite: with a one-minute poll, an append is ingested
// because the write wakes the follower, not because the poll came due.
func TestFollowWakesOnWrite(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := filepath.Join(t.TempDir(), "live.bin")
	all := followEvents(200)
	lw := newLiveWriter(t, path)
	lw.append(all[:100])

	s := New(quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.StopFollowers()
	followLoad(t, ts, "live", path, 60000)
	if f := followerOf(t, s, "live"); f.eng.Changed() == nil {
		t.Skipf("file not watched, so only the poll runs: %v", f.eng.WatchErr())
	}
	lw.append(all[100:])
	if !horizonWithin(s, "live", all[len(all)-1].Start, 2*time.Second) {
		t.Fatal("the published horizon did not cover an append within 2s at poll_ms 60000")
	}
}

// TestFollowUnwatchedPolls: when the file watch cannot be set up
// (traceio.FailpointWatch), the follower still ingests, by its poll.
func TestFollowUnwatchedPolls(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	if err := failpoint.Enable(traceio.FailpointWatch, "error(no watch)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable(traceio.FailpointWatch)
	path := filepath.Join(t.TempDir(), "live.bin")
	all := followEvents(200)
	lw := newLiveWriter(t, path)
	lw.append(all[:100])

	s := New(quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.StopFollowers()
	followLoad(t, ts, "live", path, 10)
	if f := followerOf(t, s, "live"); f.eng.Changed() != nil || !errors.Is(f.eng.WatchErr(), failpoint.ErrInjected) {
		t.Fatalf("Changed() = %v, WatchErr() = %v; want nil and the injected error", f.eng.Changed(), f.eng.WatchErr())
	}
	lw.append(all[100:])
	waitForFollow(t, ts, "live", len(all))
}

// TestFollowPollMsOverflow: a poll_ms no positive Duration holds is a 400
// that registers and seeds nothing, and the server serves on.
func TestFollowPollMsOverflow(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := filepath.Join(t.TempDir(), "live.bin")
	newLiveWriter(t, path).append(followEvents(100))
	s, ts := newTestServer(t, quietConfig())
	defer s.StopFollowers()

	maxMs := int(math.MaxInt64 / int64(time.Millisecond))
	if d, err := pollInterval(maxMs); err != nil || d <= 0 {
		t.Fatalf("pollInterval(%d) = %v, %v; want a positive Duration", maxMs, d, err)
	}
	for _, ms := range []int{1e13, maxMs + 1, math.MaxInt, -1} {
		body, _ := json.Marshal(loadRequest{ID: "big", Path: path, Follow: true, PollMs: ms})
		resp, err := http.Post(ts.URL+"/traces", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := readAll(resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("poll_ms=%d: status %d (%s), want 400", ms, resp.StatusCode, raw)
		}
		if _, ok := s.Registry().Get("big"); ok {
			t.Fatalf("poll_ms=%d: the refused load registered its trace", ms)
		}
		if st := s.CacheStats(); st.Entries != 0 {
			t.Fatalf("poll_ms=%d: the refused load seeded the cache: %d entries", ms, st.Entries)
		}
	}
	followLoad(t, ts, "live", path, 10)
	if resp, body := get(t, ts.URL+"/traces/live/aggregate?p=0.4&live=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("live=1 after the refused loads: status %d (%s)", resp.StatusCode, body)
	}
}

// TestFollowCheckpointsPerPoll: a writer that flushes every few
// milliseconds wakes many ticks, but a tick counts toward a checkpoint
// only once a poll interval has passed since the last one that counted,
// so with checkpoint_ticks 1 and poll_ms 200 the keeper writes about one
// checkpoint per poll, not one per flush.
func TestFollowCheckpointsPerPoll(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := filepath.Join(t.TempDir(), "live.bin")
	all := followEvents(3100)
	lw := newLiveWriter(t, path)
	lw.append(all[:100])

	s, ts, _ := newStateServer(t, t.TempDir(), microscopic.IndexAuto)
	defer shutdown(t, s, ts)
	const poll = 200 * time.Millisecond
	followLoad(t, ts, "live", path, int(poll/time.Millisecond))
	if f := followerOf(t, s, "live"); f.eng.Changed() == nil {
		t.Skipf("file not watched, so ticks come only from the poll: %v", f.eng.WatchErr())
	}
	before := s.CacheStats()
	start := time.Now()
	for next := 110; next <= len(all); next += 10 {
		lw.append(all[next-10 : next])
		time.Sleep(2 * time.Millisecond)
	}
	if !horizonWithin(s, "live", all[len(all)-1].Start, 5*time.Second) {
		t.Fatal("the follower did not ingest the writer's flushes")
	}
	elapsed := time.Since(start)
	time.Sleep(50 * time.Millisecond) // let the keeper finish a pending kick
	after := s.CacheStats()
	ticks, ckpts := after.FollowTicks-before.FollowTicks, after.Checkpoints-before.Checkpoints
	t.Logf("%d flushes over %v: %d ticks, %d checkpoints", len(all)/10-10, elapsed, ticks, ckpts)
	if limit := int64(elapsed/poll) + 2; ckpts < 1 || ckpts > limit {
		t.Fatalf("%d ticks over %v wrote %d checkpoints; want 1..%d, one per poll that ingested events", ticks, elapsed, ckpts, limit)
	}
}
