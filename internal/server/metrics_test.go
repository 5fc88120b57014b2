package server

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestMetricsGolden pins the full observable counter surface: every
// /metrics HELP, TYPE and value line in order, and every
// /debug/cachestats key and value in order, after a fixed request
// sequence (a scratch aggregate, a derived pan, a hit and a quality
// sweep). Both bodies must stay byte-identical across refactors of the
// counter plumbing; regenerate with `go test -run TestMetricsGolden
// -update` only when a counter is deliberately added or renamed.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	for _, q := range []string{
		"/traces/art/aggregate?slices=20",
		"/traces/art/aggregate?slices=20&pan=1",
		"/traces/art/aggregate?slices=20&pan=1",
		"/traces/art/quality?slices=20&ps=0.2,0.6",
	} {
		if resp, body := get(t, ts.URL+q); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
	}
	for _, c := range []struct{ path, golden string }{
		{"/metrics", "metrics.golden"},
		{"/debug/cachestats", "cachestats.golden"},
	} {
		resp, body := get(t, ts.URL+c.path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, resp.StatusCode)
		}
		file := filepath.Join("testdata", c.golden)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want) {
			t.Errorf("%s differs from %s:\n got:\n%s\nwant:\n%s", c.path, file, body, want)
		}
	}
}
