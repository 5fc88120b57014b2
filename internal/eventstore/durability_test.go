package eventstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// listNames returns the names in dir (test helper for debris checks).
func listNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestFinishPublishesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.oces")
	meta := Meta{Series: []string{"r0", "r1"}, States: []string{"s"}, Start: 0, End: 10}
	b, err := Create(path, meta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := b.Add(uint32(i%2), 0, float64(i), float64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	defer s.Close()
	// The published name exists; no build temp or spill run survives.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("published store missing: %v", err)
	}
	for _, name := range listNames(t, dir) {
		if strings.HasPrefix(name, ".oces-build-") || strings.HasPrefix(name, ".oces-run-") {
			t.Fatalf("temp debris after Finish: %s", name)
		}
	}
}

func TestFinishNeverPublishesUnderFinalName(t *testing.T) {
	// Abort after adds: the final path must never have existed, because
	// all writing happens under the temp name until the closing rename.
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.oces")
	b, err := Create(path, Meta{Series: []string{"r"}, States: []string{"s0", "s1", "s2"}}, Options{SortBufferEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, e := range randomEvents(rng, 50, 1) {
		if err := b.Add(e.series, e.state, e.start, e.end); err != nil {
			t.Fatal(err)
		}
	}
	b.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("aborted build left something at the final path: %v", err)
	}
}

func TestVerifyChunksCleanStore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, 3000, 4)
	s := buildStore(t, events, Options{TargetChunkEvents: 128})
	n, err := s.VerifyChunks()
	if err != nil {
		t.Fatalf("VerifyChunks on clean store: %v", err)
	}
	if n != s.NumChunks() {
		t.Fatalf("verified %d of %d chunks", n, s.NumChunks())
	}
	// Scrub reads bypass the cache: a second pass re-reads from disk.
	before := s.ReadStats()
	if _, err := s.VerifyChunks(); err != nil {
		t.Fatal(err)
	}
	after := s.ReadStats()
	if after.ChunksRead-before.ChunksRead != int64(s.NumChunks()) {
		t.Fatalf("second VerifyChunks read %d chunks from disk, want %d (cache bypass)",
			after.ChunksRead-before.ChunksRead, s.NumChunks())
	}
	if after.CacheHits != before.CacheHits {
		t.Fatal("VerifyChunks consulted the decoded-chunk cache")
	}
}

func TestVerifyChunksDetectsBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	events := randomEvents(rng, 3000, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.oces")
	meta := Meta{Series: []string{"r0", "r1", "r2", "r3"}, States: []string{"a", "b", "c"}, Start: 0, End: 100}
	b, err := Create(path, meta, Options{TargetChunkEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := b.Add(e.series, e.state, e.start, e.end); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one bit in the middle of the chunk region (past the header,
	// well before the directory) and reopen: Open succeeds (directory
	// CRC is intact) but the scrub must catch the damaged chunk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+len(data)/3] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("Open after chunk bit flip should succeed (lazy reads): %v", err)
	}
	defer s.Close()
	n, err := s.VerifyChunks()
	if err == nil {
		t.Fatal("VerifyChunks missed a flipped chunk byte")
	}
	if !IsCorrupt(err) {
		t.Fatalf("want corruption, got %T: %v", err, err)
	}
	if n >= s.NumChunks() {
		t.Fatalf("verified count %d with %d chunks and one corrupt", n, s.NumChunks())
	}
}
