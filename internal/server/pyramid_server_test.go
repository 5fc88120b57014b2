package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"ocelotl/internal/testutil"
)

// TestZoomLadderByteIdentity is the serving-layer acceptance check of the
// multi-resolution pyramid: an overview → zoom → back-out → re-zoom
// sequence against a cached server must (a) serve the revisited levels
// from the ladder (hit or derived, never scratch), (b) classify the
// resolution changes in the zoom counters, and (c) produce responses
// byte-identical to a caching-disabled server that builds every window
// from the event index.
func TestZoomLadderByteIdentity(t *testing.T) {
	sCached, tsCached := newTestServer(t, quietConfig())
	cfgScratch := quietConfig()
	cfgScratch.CacheBytes = -1 // every request builds from scratch
	_, tsScratch := newTestServer(t, cfgScratch)

	overview := "/traces/art/aggregate?slices=64"
	zoomed := "/traces/art/aggregate?slices=64&lo=2&hi=7"
	steps := []struct {
		path      string
		wantBuild string
	}{
		{overview, "scratch"},             // first touch of the overview level
		{zoomed, "scratch"},               // first touch of the zoom level
		{overview, "hit"},                 // back out: overview level is warm
		{zoomed + "&pan=1", "derived"},    // re-zoom panned: same grid, Update
		{zoomed, "hit"},                   // re-zoom exact: still resident
		{overview + "&pan=-2", "derived"}, // pan the overview level
	}
	for i, step := range steps {
		resp, body := get(t, tsCached.URL+step.path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d %s: status %d: %s", i, step.path, resp.StatusCode, body)
		}
		if got := resp.Header.Get(buildHeader); got != step.wantBuild {
			t.Fatalf("step %d %s: build %q, want %q", i, step.path, got, step.wantBuild)
		}
		sresp, sbody := get(t, tsScratch.URL+step.path)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("step %d scratch: status %d: %s", i, sresp.StatusCode, sbody)
		}
		if string(body) != string(sbody) {
			t.Fatalf("step %d %s: %s body differs from scratch build\ncached:  %s\nscratch: %s",
				i, step.path, step.wantBuild, body, sbody)
		}
	}
	st := sCached.CacheStats()
	if st.ZoomScratch == 0 {
		t.Fatalf("zoom_scratch = 0, want the first zoom counted: %+v", st)
	}
	if st.ZoomDerived == 0 {
		t.Fatalf("zoom_derived = 0, want the warm re-zoom counted: %+v", st)
	}
	if st.Scratch != 2 {
		t.Fatalf("scratch builds = %d, want 2 (one per level): %+v", st.Scratch, st)
	}
}

// TestAdmissionGuardRejectsOversizedWindow checks the arithmetic 413: a
// window whose single Input would exceed the cache budget is refused
// before any build, while a caching-disabled server admits everything.
func TestAdmissionGuardRejectsOversizedWindow(t *testing.T) {
	cfg := quietConfig()
	cfg.CacheBytes = 4 << 10 // far below any Input at 64 slices
	s, ts := newTestServer(t, cfg)

	resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=64")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "budget") {
		t.Fatalf("413 body does not explain the budget: %s", body)
	}
	if st := s.CacheStats(); st.Rejected != 1 || st.Misses != 0 {
		t.Fatalf("rejected=%d misses=%d, want 1 rejection and no build", st.Rejected, st.Misses)
	}

	cfg.CacheBytes = -1 // disabled cache: no ladder to protect, no guard
	_, tsOff := newTestServer(t, cfg)
	if resp, body := get(t, tsOff.URL+"/traces/art/aggregate?slices=64"); resp.StatusCode != http.StatusOK {
		t.Fatalf("disabled cache: status %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestRefineServesPreviewThenFine drives the progressive path: a zoom
// into uncached territory with refine=1 answers immediately with the
// coarse covering overview (preview marked in header and body) while the
// fine build runs in the background; re-requesting converges to the final
// response, byte-identical to a scratch build of the same window.
func TestRefineServesPreviewThenFine(t *testing.T) {
	s, ts := newTestServer(t, quietConfig())

	// Warm the overview level.
	if resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=64"); resp.StatusCode != http.StatusOK {
		t.Fatalf("overview: status %d: %s", resp.StatusCode, body)
	}

	zoomed := "/traces/art/aggregate?slices=64&lo=3&hi=9&refine=1"
	resp, body := get(t, ts.URL+zoomed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refine: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(refineHeader); got != "pending" {
		t.Fatalf("%s = %q, want pending", refineHeader, got)
	}
	if got := resp.Header.Get(buildHeader); got != string(BuildPreview) {
		t.Fatalf("%s = %q, want preview", buildHeader, got)
	}
	if !strings.Contains(string(body), `"preview":true`) {
		t.Fatalf("preview body not marked: %s", body)
	}
	// The preview is the covering overview at half resolution.
	if !strings.Contains(string(body), `"slices":32`) {
		t.Fatalf("preview not served at the coarse level: %s", body)
	}
	if st := s.CacheStats(); st.Previews != 1 {
		t.Fatalf("previews = %d, want 1", st.Previews)
	}

	// The background build converges: the same URL turns "ready" and the
	// final body is the fine window.
	deadline := time.Now().Add(30 * time.Second)
	var final []byte
	for {
		resp, body = get(t, ts.URL+zoomed)
		if resp.Header.Get(refineHeader) == "ready" {
			final = body
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refine never converged; last state %q", resp.Header.Get(refineHeader))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if strings.Contains(string(final), `"preview":true`) {
		t.Fatalf("converged body still marked preview: %s", final)
	}

	// Byte-identical to a scratch build of the fine window.
	cfgScratch := quietConfig()
	cfgScratch.CacheBytes = -1
	_, tsScratch := newTestServer(t, cfgScratch)
	if _, sbody := get(t, tsScratch.URL+"/traces/art/aggregate?slices=64&lo=3&hi=9"); string(final) != string(sbody) {
		t.Fatalf("refined body differs from scratch:\nrefined: %s\nscratch: %s", final, sbody)
	}
}

// TestRefineAdoptsWithoutFollowUp: a refine=1 "pending" answer keeps its
// fine build alive after the request is gone, with no re-request to join
// the flight — the build lands in the cache on its own.
func TestRefineAdoptsWithoutFollowUp(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, quietConfig())
	if resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=64"); resp.StatusCode != http.StatusOK {
		t.Fatalf("overview: status %d: %s", resp.StatusCode, body)
	}
	checkAdoptedBuildLands(t, s, "/traces/art/aggregate?slices=64&lo=3&hi=9&refine=1", refineHeader, "pending")
}

// TestRefineWithoutCoverFallsThrough: refine on a first-touch region has
// nothing to preview and answers synchronously, final.
func TestRefineWithoutCoverFallsThrough(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=48&lo=1&hi=4&refine=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(refineHeader); got != "none" {
		t.Fatalf("%s = %q, want none", refineHeader, got)
	}
	if got := resp.Header.Get(buildHeader); got != "scratch" {
		t.Fatalf("%s = %q, want scratch", buildHeader, got)
	}
	if strings.Contains(string(body), `"preview"`) {
		t.Fatalf("synchronous fallback marked preview: %s", body)
	}
}

// TestMetricsEndpoint scrapes /metrics and checks the Prometheus text
// format carries the counters /debug/cachestats reports.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, quietConfig())
	if resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=20"); resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: status %d: %s", resp.StatusCode, body)
	}

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	st := s.CacheStats()
	text := string(body)
	for _, want := range []string{
		"# TYPE ocelotl_cache_misses_total counter",
		fmt.Sprintf("ocelotl_cache_misses_total %d", st.Misses),
		fmt.Sprintf("ocelotl_cache_scratch_builds_total %d", st.Scratch),
		"# TYPE ocelotl_cache_bytes gauge",
		fmt.Sprintf("ocelotl_cache_budget_bytes %d", st.BudgetBytes),
		"ocelotl_zoom_derived_total",
		"ocelotl_zoom_scratch_total",
		"ocelotl_cache_rejected_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}
