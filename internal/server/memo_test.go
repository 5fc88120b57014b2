package server

import (
	"bytes"
	"net/http"
	"testing"
)

// memoHits sums the memo hits of every cached Input.
func memoHits(s *Server) int64 {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	var hits int64
	for _, el := range c.entries {
		hits += el.Value.(*entry).in.MemoStats().Hits
	}
	return hits
}

// TestMemoWarmServerByteIdentical: a server whose cached Input has
// memoized answers from overlapping /aggregate, /render, /quality and
// /significant traffic answers each of those queries with a body byte
// for byte equal to a cold server's, where every answer is a solve.
func TestMemoWarmServerByteIdentical(t *testing.T) {
	queries := []string{
		"/aggregate?p=0.35",
		"/aggregate?p=0.5", // a dichotomy midpoint: first seen as a sweep summary
		"/aggregate?p=1",
		"/quality?ps=0.1,0.35,0.5,0.5,0.9",
		"/quality?ps=0.25,0.75",
		"/significant?eps=1e-3",
		"/significant?eps=1.5e-3", // samples the same dyadic points as 1e-3
		"/significant?eps=1e-2",
		"/render?p=0.35&format=svg&width=200&height=120",
	}
	warm, wts := newTestServer(t, quietConfig())
	// Warm in reverse so sweeps see per-p answers and per-p queries see
	// sweep summaries, then once more in order.
	for i := len(queries) - 1; i >= 0; i-- {
		if resp, body := get(t, wts.URL+"/traces/art"+queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up %s: status %d: %s", queries[i], resp.StatusCode, body)
		}
	}
	for _, q := range queries {
		get(t, wts.URL+"/traces/art"+q)
	}
	hits := memoHits(warm)
	for _, q := range queries {
		_, cts := newTestServer(t, quietConfig())
		coldResp, cold := get(t, cts.URL+"/traces/art"+q)
		warmResp, hot := get(t, wts.URL+"/traces/art"+q)
		if coldResp.StatusCode != http.StatusOK || warmResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status cold %d, warm %d", q, coldResp.StatusCode, warmResp.StatusCode)
		}
		if !bytes.Equal(hot, cold) {
			t.Fatalf("%s: memo-warm body differs from a cold server's:\nwarm: %s\ncold: %s", q, hot, cold)
		}
		cts.Close()
	}
	if after := memoHits(warm); after-hits < int64(len(queries)) {
		t.Fatalf("the final pass hit the memo %d times for %d queries", after-hits, len(queries))
	}
}
