package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/testutil"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/traceio"
)

// quietConfig keeps test logs out of the way and the worker count small.
func quietConfig() Config {
	return Config{
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		RequestTimeout: time.Minute,
	}
}

// newTestServer spins up a server with the artificial trace preloaded
// under id "art".
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if _, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(24, 40)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestLoadListInfoUnload(t *testing.T) {
	s := New(quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dir := t.TempDir()
	path := filepath.Join(dir, "art.bin")
	if err := traceio.WriteFile(path, mpisim.Artificial()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(loadRequest{ID: "a", Path: path})
	resp, err := http.Post(ts.URL+"/traces", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /traces: status %d", resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "a" || info.Events == 0 || info.Resources == 0 {
		t.Fatalf("bad load response: %+v", info)
	}

	// Duplicate load conflicts.
	resp2, err := http.Post(ts.URL+"/traces", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate load: status %d, want 409", resp2.StatusCode)
	}

	if r, _ := get(t, ts.URL+"/traces/a"); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/a: status %d", r.StatusCode)
	}
	_, listBody := get(t, ts.URL+"/traces")
	if !bytes.Contains(listBody, []byte(`"id":"a"`)) {
		t.Fatalf("list does not mention trace a: %s", listBody)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/traces/a", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", dresp.StatusCode)
	}
	if r, _ := get(t, ts.URL+"/traces/a/aggregate?p=0.5"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("aggregate after unload: status %d, want 404", r.StatusCode)
	}
}

// TestLoadTraceRejectsInvalidEvent: an in-memory trace holding an event
// trace.Event.Valid rejects (an infinite end) does not load, the error
// names the event, and nothing is registered.
func TestLoadTraceRejectsInvalidEvent(t *testing.T) {
	tr := mpisim.ArtificialSized(8, 20)
	tr.Add(0, 0, 1, math.Inf(1))
	reg := NewRegistry()
	_, err := reg.LoadTrace("bad", tr)
	if want := fmt.Sprintf("event %d ", len(tr.Events)-1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadTrace: error %v, want one naming %q", err, want)
	}
	if _, err := reg.LoadTrace("bad", mpisim.ArtificialSized(8, 20)); err != nil {
		t.Fatalf("the refused id stayed registered: %v", err)
	}
}

// TestLoadConflictStatus pins the load status mapping to the error's
// identity, not its text: a duplicate id answers 409 for batch and follow
// loads alike, while a missing file answers 400 even when its path
// happens to read like the conflict message.
func TestLoadConflictStatus(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	dir := t.TempDir()
	path := filepath.Join(dir, "art.bin")
	if err := traceio.WriteFile(path, mpisim.Artificial()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		req  loadRequest
		want int
	}{
		{"batch duplicate", loadRequest{ID: "art", Path: path}, http.StatusConflict},
		{"follow duplicate", loadRequest{ID: "art", Path: path, Follow: true}, http.StatusConflict},
		{"missing file", loadRequest{ID: "b", Path: filepath.Join(dir, "already loaded", "x.bin")}, http.StatusBadRequest},
	} {
		body, _ := json.Marshal(c.req)
		resp, err := http.Post(ts.URL+"/traces", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.want, msg)
		}
	}
}

// TestLoadBodyTooLarge: a POST /traces body over maxLoadBody answers 413
// and loads nothing, even when the request inside it names a loadable
// file.
func TestLoadBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t, quietConfig())
	path := filepath.Join(t.TempDir(), "art.bin")
	if err := traceio.WriteFile(path, mpisim.Artificial()); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"id":"big","path":%q,"pad":%q}`, path, strings.Repeat("x", maxLoadBody))
	resp, err := http.Post(ts.URL+"/traces", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized load body: status %d, want 413: %s", resp.StatusCode, msg)
	}
	if _, ok := s.Registry().Get("big"); ok {
		t.Fatal("an oversized load body registered its trace")
	}
	if n := len(s.Registry().List()); n != 1 {
		t.Fatalf("%d traces loaded after the refused body, want only the preloaded one", n)
	}
}

// TestPanServedIncrementally is the acceptance scenario: load → aggregate
// → pan. The panned window must be served via Input.Update from the
// cached anchor (a derived build, not scratch), and its response body must
// be byte-identical to the same window built from scratch on a fresh
// server.
func TestPanServedIncrementally(t *testing.T) {
	s, ts := newTestServer(t, quietConfig())

	const window = "slices=20&p=0.4"
	resp, _ := get(t, ts.URL+"/traces/art/aggregate?"+window)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anchor: status %d", resp.StatusCode)
	}
	if b := resp.Header.Get(buildHeader); b != string(BuildScratch) {
		t.Fatalf("anchor build = %q, want scratch", b)
	}

	resp, derivedBody := get(t, ts.URL+"/traces/art/aggregate?"+window+"&pan=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pan: status %d", resp.StatusCode)
	}
	if b := resp.Header.Get(buildHeader); b != string(BuildDerived) {
		t.Fatalf("pan build = %q, want derived", b)
	}
	st := s.CacheStats()
	if st.Derived != 1 || st.Scratch != 1 {
		t.Fatalf("stats after pan: %+v, want 1 derived + 1 scratch", st)
	}

	// A fresh server has no anchor to derive from: the same panned window
	// is a scratch build there, and must produce byte-identical JSON.
	_, ts2 := newTestServer(t, quietConfig())
	resp, scratchBody := get(t, ts2.URL+"/traces/art/aggregate?"+window+"&pan=1")
	if b := resp.Header.Get(buildHeader); b != string(BuildScratch) {
		t.Fatalf("fresh-server pan build = %q, want scratch", b)
	}
	if !bytes.Equal(derivedBody, scratchBody) {
		t.Fatalf("derived partition differs from scratch build:\nderived: %s\nscratch: %s", derivedBody, scratchBody)
	}

	// The anchor window is still cached: re-requesting it is a hit.
	resp, _ = get(t, ts.URL+"/traces/art/aggregate?"+window)
	if b := resp.Header.Get(buildHeader); b != string(BuildHit) {
		t.Fatalf("anchor re-request build = %q, want hit", b)
	}
}

// TestReanchoredWindowDerives checks the nearest-window search for
// requests that specify the panned window by absolute times (a client
// that computes lo+width itself) rather than the grid-exact pan param.
func TestReanchoredWindowDerives(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())

	var anchor aggregateJSON
	resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=20")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anchor: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &anchor); err != nil {
		t.Fatal(err)
	}
	w := (anchor.Window.End - anchor.Window.Start) / float64(anchor.Window.Slices)
	lo := anchor.Window.Start + 2*w
	hi := anchor.Window.End + 2*w
	url := fmt.Sprintf("%s/traces/art/aggregate?slices=20&lo=%.17g&hi=%.17g", ts.URL, lo, hi)
	resp, _ = get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shifted window: status %d", resp.StatusCode)
	}
	// base + 2w re-derived from decimal round-trips may or may not land
	// bit-exactly on the grid; when it does, the build must be derived.
	// With lo/hi printed at full precision it does for this window.
	if b := resp.Header.Get(buildHeader); b != string(BuildDerived) {
		t.Fatalf("shifted-window build = %q, want derived", b)
	}
}

// TestSingleflight fires concurrent identical first-time requests; the
// build must run exactly once, everything else coalescing onto it.
func TestSingleflight(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, ts := newTestServer(t, quietConfig())

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/traces/art/aggregate?p=0.3&slices=25")
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// One key: exactly one build ever ran, split across one miss and n-1
	// hits/coalesced waiters.
	s := httptestStats(t, ts)
	if s.Misses != 1 || s.Scratch+s.Derived != 1 {
		t.Fatalf("singleflight stats: %+v, want exactly one build", s)
	}
	if s.Hits+s.Coalesced != n-1 {
		t.Fatalf("singleflight stats: %+v, want %d hits+coalesced", s, n-1)
	}
}

func httptestStats(t *testing.T, ts *httptest.Server) StatsSnapshot {
	t.Helper()
	_, body := get(t, ts.URL+"/debug/cachestats")
	var s StatsSnapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConcurrentAggregates hammers one trace from many goroutines with
// mixed windows and p values; run under -race this exercises the cache,
// singleflight, the bounded solve slots and handlers for data races.
func TestConcurrentAggregates(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, quietConfig())

	const workers = 8
	const perWorker = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url := fmt.Sprintf("%s/traces/art/aggregate?slices=20&pan=%d&p=0.%d",
					ts.URL, i%3, 1+(g+i)%8)
				resp, err := http.Get(url)
				if err != nil {
					errs[g] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[g] = fmt.Errorf("%s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	total := st.Hits + st.Misses + st.Coalesced
	if total != workers*perWorker {
		t.Fatalf("requests accounted: %d, want %d (%+v)", total, workers*perWorker, st)
	}
	if st.Derived+st.Scratch != st.Misses {
		t.Fatalf("builds (%d derived + %d scratch) != misses %d", st.Derived, st.Scratch, st.Misses)
	}
}

// TestEvictionUnderTinyBudget caches through a budget that holds exactly
// one window, so every second window evicts the first.
func TestEvictionUnderTinyBudget(t *testing.T) {
	tr := loadArtificial(t)
	sl, err := timeslice.New(0, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := tr.resl.BuildAt(sl)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := core.NewInputContext(context.Background(), pm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(probe.MemoryBytes()) + 64 // one entry fits, two don't

	c := NewInputCache(budget, core.Options{}, 0)
	// Three pairwise non-overlapping windows (pans ≥ |T| share nothing).
	w1 := sl
	w2 := sl.Shift(16)
	w3 := sl.Shift(32)
	for _, w := range []timeslice.Slicer{w1, w2, w3} {
		if _, kind, err := c.Get(context.Background(), tr, w); err != nil || kind != BuildScratch {
			t.Fatalf("window %v: kind %v err %v, want scratch", w.Start, kind, err)
		}
	}
	st := c.Snapshot()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 under single-entry budget", st.Entries)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.Bytes > budget {
		t.Fatalf("cached bytes %d exceed budget %d", st.Bytes, budget)
	}
	// w3 survived (most recent), w1 must rebuild.
	if _, kind, _ := c.Get(context.Background(), tr, w3); kind != BuildHit {
		t.Fatalf("w3: kind %v, want hit", kind)
	}
	if _, kind, _ := c.Get(context.Background(), tr, w1); kind != BuildScratch {
		t.Fatalf("w1 after eviction: kind %v, want scratch rebuild", kind)
	}
}

// TestDerivedMatchesScratchAtCacheLevel checks bit-identity of the
// cache's derivation path against a fresh build of the same window.
func TestDerivedMatchesScratchAtCacheLevel(t *testing.T) {
	tr := loadArtificial(t)
	sl, err := timeslice.New(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	c := NewInputCache(DefaultCacheBytes, core.Options{}, 0)
	if _, kind, err := c.Get(context.Background(), tr, sl); err != nil || kind != BuildScratch {
		t.Fatalf("anchor: kind %v err %v", kind, err)
	}
	for _, k := range []int{1, -2, 7} {
		derived, kind, err := c.Get(context.Background(), tr, sl.Shift(k))
		if err != nil {
			t.Fatal(err)
		}
		if kind != BuildDerived {
			t.Fatalf("pan %+d: kind %v, want derived", k, kind)
		}
		fm, err := tr.resl.BuildAt(derived.Model.Slicer)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.NewInputContext(context.Background(), fm, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dg, dl := derived.RootGainLoss()
		fg, fl := fresh.RootGainLoss()
		if dg != fg || dl != fl {
			t.Fatalf("pan %+d: root gain/loss (%v,%v) != fresh (%v,%v)", k, dg, dl, fg, fl)
		}
		dp, err := derived.NewSolver().RunContext(context.Background(), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fresh.NewSolver().RunContext(context.Background(), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Signature() != fp.Signature() || dp.PIC != fp.PIC {
			t.Fatalf("pan %+d: derived partition differs from scratch", k)
		}
	}
}

func loadArtificial(t *testing.T) *Trace {
	t.Helper()
	reg := NewRegistry()
	tr, err := reg.LoadTrace("art", mpisim.ArtificialSized(16, 40))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSignificantQualityRenderEndpoints smoke-tests the remaining query
// endpoints over one cached window.
func TestSignificantQualityRenderEndpoints(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())

	resp, body := get(t, ts.URL+"/traces/art/significant?eps=0.01&slices=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("significant: status %d: %s", resp.StatusCode, body)
	}
	var sig struct {
		Points []qualityJSON `json:"points"`
	}
	if err := json.Unmarshal(body, &sig); err != nil {
		t.Fatal(err)
	}
	if len(sig.Points) < 2 {
		t.Fatalf("significant: %d points, want ≥ 2", len(sig.Points))
	}

	resp, body = get(t, ts.URL+"/traces/art/quality?ps=0.2,0.8&slices=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quality: status %d: %s", resp.StatusCode, body)
	}
	var qual struct {
		Points []qualityJSON `json:"points"`
	}
	if err := json.Unmarshal(body, &qual); err != nil {
		t.Fatal(err)
	}
	if len(qual.Points) != 2 || qual.Points[0].P != 0.2 || qual.Points[1].P != 0.8 {
		t.Fatalf("quality: bad points %+v", qual.Points)
	}

	resp, body = get(t, ts.URL+"/traces/art/render?p=0.4&slices=15&width=200&height=120")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("render content-type %q", ct)
	}
	if len(body) < 8 || body[1] != 'P' || body[2] != 'N' || body[3] != 'G' {
		t.Fatalf("render did not produce a PNG (%d bytes)", len(body))
	}

	// All three shared one window: first built it, the rest hit.
	s := httptestStats(t, ts)
	if s.Hits < 2 {
		t.Fatalf("stats %+v: want the window shared across endpoints", s)
	}

	// Parameter validation surfaces as 400s.
	if r, _ := get(t, ts.URL+"/traces/art/aggregate?p=nope"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad p: status %d", r.StatusCode)
	}
	if r, _ := get(t, ts.URL+"/traces/art/aggregate?p=1.5"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range p: status %d", r.StatusCode)
	}
	if r, _ := get(t, ts.URL+"/traces/art/aggregate?slices=0"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero slices: status %d", r.StatusCode)
	}
}

// TestSlicesCapAndFiniteWindow: resource-limit validation — an over-cap
// |T|, a non-finite window bound, a non-finite /significant eps or an
// unknown /render format must be rejected before any build.
func TestSlicesCapAndFiniteWindow(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	for _, q := range []string{
		"aggregate?slices=30000", "aggregate?slices=513", "aggregate?lo=-Inf", "aggregate?hi=%2BInf", "aggregate?lo=NaN",
		"significant?eps=NaN", "significant?eps=Inf", "significant?eps=%2BInf", "significant?eps=-Inf",
		"render?format=gif",
	} {
		if r, body := get(t, ts.URL+"/traces/art/"+q); r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", q, r.StatusCode, body)
		}
	}
	if st := httptestStats(t, ts); st.Misses != 0 || st.Scratch != 0 {
		t.Errorf("rejected requests reached the cache: %d misses, %d scratch builds", st.Misses, st.Scratch)
	}
	// The cap is configurable.
	cfg := quietConfig()
	cfg.MaxSlices = 600
	_, ts2 := newTestServer(t, cfg)
	if r, body := get(t, ts2.URL+"/traces/art/aggregate?slices=513&p=0.5"); r.StatusCode != http.StatusOK {
		t.Errorf("slices=513 under raised cap: status %d (%s)", r.StatusCode, body)
	}
}

// TestReloadedTraceDoesNotHitStaleCache: entries (and in-flight builds)
// of an unloaded trace must never serve a reload of the same id — each
// load gets its own cache generation.
func TestReloadedTraceDoesNotHitStaleCache(t *testing.T) {
	c := NewInputCache(DefaultCacheBytes, core.Options{}, 0)
	regA := NewRegistry()
	trOld, err := regA.LoadTrace("a", mpisim.ArtificialSized(8, 40))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := timeslice.New(0, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, kind, err := c.Get(context.Background(), trOld, sl); err != nil || kind != BuildScratch {
		t.Fatalf("old trace: kind %v err %v", kind, err)
	}
	// Unload + reload the same id (different content, new generation).
	if !regA.Remove("a") {
		t.Fatal("remove failed")
	}
	c.PurgeTrace("a", trOld.gen)
	trNew, err := regA.LoadTrace("a", mpisim.ArtificialSized(16, 40))
	if err != nil {
		t.Fatal(err)
	}
	if trNew.gen == trOld.gen {
		t.Fatal("reload reused the old generation")
	}
	in, kind, err := c.Get(context.Background(), trNew, sl)
	if err != nil {
		t.Fatal(err)
	}
	if kind != BuildScratch {
		t.Fatalf("reloaded trace window: kind %v, want a fresh scratch build", kind)
	}
	if got := in.Model.NumResources(); got != 16 {
		t.Fatalf("served Input has %d resources, want the reloaded trace's 16", got)
	}
	// A stale insert after the purge (a build that was in flight during
	// the unload) is discarded outright — no budget parked on an
	// unreachable entry, and the new generation can never hit it.
	before := c.Snapshot()
	c.insertStaleForTest(t, trOld, sl)
	after := c.Snapshot()
	if after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Fatalf("stale insert was cached: %+v -> %+v", before, after)
	}
	if _, kind, _ := c.Get(context.Background(), trNew, sl.Shift(1)); kind == BuildHit {
		t.Fatal("new generation hit a stale entry")
	}
}

// insertStaleForTest re-inserts a scratch build under an old trace
// generation, simulating a build that was in flight across an unload;
// tests use it to prove generation isolation.
func (c *InputCache) insertStaleForTest(t *testing.T, tr *Trace, sl timeslice.Slicer) {
	t.Helper()
	m, err := tr.resl.BuildAt(sl)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInputContext(context.Background(), m, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.insertLocked(tr, in)
	c.mu.Unlock()
}

// TestRequestWorkCaps: the render-dimension and quality-sweep caps reject
// requests whose bounded-work guarantee would otherwise break.
func TestRequestWorkCaps(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	if r, _ := get(t, ts.URL+"/traces/art/render?width=100000&height=100000"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized render: status %d, want 400", r.StatusCode)
	}
	huge := "0.1" + strings.Repeat(",0.1", maxQualityPs)
	if r, _ := get(t, ts.URL+"/traces/art/quality?ps="+huge); r.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized ps list: status %d, want 400", r.StatusCode)
	}
}

// TestCacheAccountsForSolverPoolWarmup: solving on an entry does not
// move its cost, because a solver retains no scratch between runs; only
// the memo does, and the cache's byte total follows it.
func TestCacheAccountsForSolverPoolWarmup(t *testing.T) {
	tr := loadArtificial(t)
	sl, err := timeslice.New(0, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := NewInputCache(DefaultCacheBytes, core.Options{}, 0)
	in, _, err := c.Get(ctx, tr, sl)
	if err != nil {
		t.Fatal(err)
	}
	cold := c.Snapshot().Bytes
	if cold != int64(in.MemoryBytes()) {
		t.Fatalf("cache charges %d bytes for an entry of %d", cold, in.MemoryBytes())
	}
	if _, err := in.NewSolver().RunContext(ctx, 0.5); err != nil { // memo-free
		t.Fatal(err)
	}
	if got := int64(in.MemoryBytes()); got != cold {
		t.Fatalf("MemoryBytes %d -> %d after a solve: the Input retains scratch", cold, got)
	}
	if _, err := in.SolveContext(ctx, 0.5); err != nil { // memoizes
		t.Fatal(err)
	}
	memo := int64(in.MemoStats().Bytes)
	if memo == 0 || int64(in.MemoryBytes()) != cold+memo {
		t.Fatalf("MemoryBytes %d after a memoized solve, want %d + memo %d", in.MemoryBytes(), cold, memo)
	}
	if _, kind, _ := c.Get(ctx, tr, sl); kind != BuildHit {
		t.Fatal("expected a hit")
	}
	if warm := c.Snapshot().Bytes; warm != cold+memo {
		t.Fatalf("cache charges %d bytes after the hit, want %d", warm, cold+memo)
	}
}

// TestCacheChargesMemoWithoutHit: the memo a window grows after its
// insert is charged even if the window is never requested again — the
// cache's byte total is the sum of its entries' MemoryBytes — and so is
// the memo a preview solve grows on an entry's overview.
func TestCacheChargesMemoWithoutHit(t *testing.T) {
	tr := loadArtificial(t)
	ctx := context.Background()
	c := NewInputCache(DefaultCacheBytes, core.Options{}, 0)
	slicer := func(start, end float64, n int) timeslice.Slicer {
		sl, err := timeslice.New(start, end, n)
		if err != nil {
			t.Fatal(err)
		}
		return sl
	}
	var ins []*core.Input
	for _, n := range []int{16, 8, previewCoarsenMin} {
		in, _, err := c.Get(ctx, tr, slicer(0, 10, n))
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	charged := func(what string, extra *core.Input, before int64) int64 {
		t.Helper()
		var sum int64
		for _, in := range ins {
			sum += int64(in.MemoryBytes())
		}
		if extra != nil {
			sum += int64(extra.MemoryBytes())
		}
		if got := c.Snapshot().Bytes; got != sum || got <= before {
			t.Fatalf("after %s the cache charges %d bytes (before: %d), entries hold %d", what, got, before, sum)
		}
		return sum
	}
	before := c.Snapshot().Bytes
	if _, err := ins[0].SolveContext(ctx, 0.37); err != nil {
		t.Fatal(err)
	}
	before = charged("a solve", nil, before)
	ov := c.Preview(tr, slicer(2, 5, 8))
	if ov == nil || ov == ins[2] {
		t.Fatalf("preview = %p, want the coarse overview of the %d-slice window", ov, previewCoarsenMin)
	}
	before = charged("the overview build", ov, before)
	if _, err := ov.SolveContext(ctx, 0.41); err != nil {
		t.Fatal(err)
	}
	charged("a preview solve", ov, before)
}
