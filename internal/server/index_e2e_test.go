package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/server/client"
	"ocelotl/internal/testutil"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// newIndexedTestServer writes the artificial trace to a file and loads it
// through the registry's file path (the only path that honors the index
// mode), so the server exercises the real out-of-core pipeline rather
// than the in-memory test shortcut.
func newIndexedTestServer(t *testing.T, cfg Config, mode microscopic.IndexMode) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "art.otf2bin")
	if err := traceio.WriteFile(path, mpisim.ArtificialSized(24, 40)); err != nil {
		t.Fatal(err)
	}
	cfg.Index = microscopic.IndexOptions{
		Mode: mode,
		Dir:  dir,
		// Small chunks so even the test trace spans many of them and
		// window pruning has something to prune.
		Store: eventstore.Options{TargetChunkEvents: 32},
	}
	s := New(cfg)
	if _, err := s.Registry().Load("art", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Registry().CloseAll(); err != nil {
			t.Errorf("closing indexes: %v", err)
		}
	})
	return s, ts
}

// TestDiskIndexServerBitIdentical drives the same pan/zoom request
// sequence against a RAM-indexed and a disk-indexed server over the same
// trace and requires byte-identical responses — the HTTP-level form of
// the backends' bit-identity contract.
func TestDiskIndexServerBitIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, ramTS := newIndexedTestServer(t, quietConfig(), microscopic.IndexRAM)
	diskS, diskTS := newIndexedTestServer(t, quietConfig(), microscopic.IndexDisk)

	if _, body := get(t, diskTS.URL+"/traces/art"); true {
		var info Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Index != "disk" {
			t.Fatalf("disk server reports index %q, want disk", info.Index)
		}
	}

	queries := []string{
		"/traces/art/aggregate?slices=20&p=0.4",
		"/traces/art/aggregate?slices=20&p=0.4&pan=1",
		"/traces/art/aggregate?slices=20&p=0.4&pan=-1",
		"/traces/art/aggregate?slices=15&p=0.3",
		"/traces/art/aggregate?slices=40&p=0.5",
		"/traces/art/aggregate?slices=10&p=0.6&pan=3",
		"/traces/art/significant?slices=20",
		"/traces/art/quality?slices=20",
	}
	for _, q := range queries {
		ramResp, ramBody := get(t, ramTS.URL+q)
		diskResp, diskBody := get(t, diskTS.URL+q)
		if ramResp.StatusCode != diskResp.StatusCode {
			t.Fatalf("%s: status ram=%d disk=%d", q, ramResp.StatusCode, diskResp.StatusCode)
		}
		if ramResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", q, ramResp.StatusCode, ramBody)
		}
		if string(ramBody) != string(diskBody) {
			t.Fatalf("%s: disk response differs from RAM\nram:  %s\ndisk: %s", q, ramBody, diskBody)
		}
	}

	snap := diskS.CacheStats()
	if snap.IndexChunksRead == 0 {
		t.Fatal("disk server served windows without reading any store chunks")
	}
	if snap.IndexBytes == 0 {
		t.Fatal("disk index reports zero resident bytes")
	}
}

// TestChaosSoakDiskIndex is the chaos soak rerun over the disk-backed
// index with the eventstore's own failpoints armed: chunk opens and
// reads fail mid-build, and every response must still be a well-formed
// status from the allowed set with byte accounting intact afterwards.
func TestChaosSoakDiskIndex(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := quietConfig()
	cfg.MaxConcurrentBuilds = 2
	cfg.MaxQueuedBuilds = 2
	cfg.DegradeAfter = 25 * time.Millisecond
	cfg.RequestTimeout = time.Minute
	s, ts := newIndexedTestServer(t, cfg, microscopic.IndexDisk)

	// Warm the full window so degradation has a preview to reach for.
	warmFullWindow(t, ts, 20)

	for point, spec := range map[string]string{
		FailpointFlight:          "10%error(chaos)",
		eventstore.FailpointRead: "10%error(chaos)",
		eventstore.FailpointOpen: "5%delay(10ms)",
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
	}
	allowed := map[int]bool{
		http.StatusOK:                    true,
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
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < perWorker; i++ {
				q := queries[rng.Intn(len(queries))]
				resp, err := http.Get(ts.URL + "/traces/art/aggregate?" + q.Encode())
				if err != nil {
					errs[g] = fmt.Errorf("worker %d: %v", g, err)
					return
				}
				resp.Body.Close()
				if !allowed[resp.StatusCode] {
					errs[g] = fmt.Errorf("worker %d: unexpected status %d", g, resp.StatusCode)
					return
				}
				mu.Lock()
				statusSeen[resp.StatusCode]++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if statusSeen[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded under chaos: %v", statusSeen)
	}
	checkByteAccounting(t, s.cache)

	// With the chaos off, the same index must still serve clean builds —
	// injected faults fail requests, never poison the store.
	failpoint.DisableAll()
	resp, body := get(t, ts.URL+"/traces/art/aggregate?slices=20&p=0.4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos build: status %d (%s)", resp.StatusCode, body)
	}
}

// TestLoadRejectsMalformedTimes: a trace file holding an event that
// trace.Event.Valid rejects ({Start: 1, End: +Inf}, which would count
// every later slice as busy) fails to load as corrupt, into the RAM index
// and into the disk index alike, and registers nothing.
func TestLoadRejectsMalformedTimes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.bin")
	lw := newLiveWriter(t, path)
	lw.append(followEvents(20))
	lw.append([]trace.Event{{Resource: 1, State: 0, Start: 1, End: math.Inf(1)}})
	for _, mode := range []microscopic.IndexMode{microscopic.IndexRAM, microscopic.IndexDisk} {
		reg := NewRegistry()
		reg.SetIndexOptions(microscopic.IndexOptions{Mode: mode, Dir: dir})
		if _, err := reg.Load("bad", path); !traceio.IsCorrupt(err) {
			t.Errorf("index mode %v: Load err %v, want a CorruptError", mode, err)
		}
		if _, ok := reg.Get("bad"); ok {
			t.Errorf("index mode %v: a corrupt trace was registered", mode)
		}
	}
}
