package eventstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

type ev struct {
	series uint32
	state  int32
	start  float64
	end    float64
}

func buildStore(t *testing.T, events []ev, opt Options) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.oces")
	meta := Meta{
		Series: []string{"job.0/rank.0", "job.0/rank.1", "job.0/rank.2", "job.0/rank.3"},
		States: []string{"compute", "wait", "send"},
		Start:  0, End: 100,
	}
	b, err := Create(path, meta, opt)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, e := range events {
		if err := b.Add(e.series, e.state, e.start, e.end); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func randomEvents(rng *rand.Rand, n int, series uint32) []ev {
	events := make([]ev, n)
	for i := range events {
		start := rng.Float64() * 100
		events[i] = ev{
			series: uint32(rng.Intn(int(series))),
			state:  int32(rng.Intn(3)),
			start:  start,
			end:    start + rng.Float64()*5,
		}
	}
	return events
}

// reference reproduces the contract order in RAM: stable sort by
// (series, start), then the per-event window filters.
func reference(events []ev, series uint32, lo, hi float64) []ev {
	var got []ev
	sorted := append([]ev(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].series != sorted[j].series {
			return sorted[i].series < sorted[j].series
		}
		return sorted[i].start < sorted[j].start
	})
	for _, e := range sorted {
		if e.series == series && e.start < hi && e.end > lo {
			got = append(got, e)
		}
	}
	return got
}

func collect(t *testing.T, s *Store, series uint32, lo, hi float64) []ev {
	t.Helper()
	var got []ev
	err := s.ForEachOverlapping(series, lo, hi, func(state int32, start, end float64) {
		got = append(got, ev{series: series, state: state, start: start, end: end})
	})
	if err != nil {
		t.Fatalf("ForEachOverlapping: %v", err)
	}
	return got
}

func sameEvents(a, b []ev) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundTripMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	events := randomEvents(rng, 5000, 4)
	// Small chunks so windows span several; in-RAM sort path (no spill).
	s := buildStore(t, events, Options{TargetChunkEvents: 64})
	if s.NumEvents() != 5000 {
		t.Fatalf("NumEvents = %d, want 5000", s.NumEvents())
	}
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64() * 100
		hi := lo + rng.Float64()*30
		series := uint32(rng.Intn(4))
		got := collect(t, s, series, lo, hi)
		want := reference(events, series, lo, hi)
		if !sameEvents(got, want) {
			t.Fatalf("series %d window [%g,%g): got %d events, want %d", series, lo, hi, len(got), len(want))
		}
	}
	// Full-window read returns everything.
	total := 0
	for series := uint32(0); series < 4; series++ {
		total += len(collect(t, s, series, math.Inf(-1), math.Inf(1)))
	}
	if total != 5000 {
		t.Fatalf("full read returned %d events, want 5000", total)
	}
}

// TestSpilledBuildIdenticalToBuffered forces the external sort (tiny
// sort buffer → many runs; a buffer just over gatherRecords → one spill
// and a last buffer the merge gathers in several batches) and checks the
// merged order equals the pure in-RAM stable sort, including ties.
func TestSpilledBuildIdenticalToBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	events := randomEvents(rng, 9000, 3)
	// Inject duplicate (series, start) pairs so tie order is exercised:
	// the duplicates carry distinct states to make swaps visible.
	for i := 0; i < 200; i++ {
		j := rng.Intn(len(events))
		dup := events[j]
		dup.state = (dup.state + 1) % 3
		events = append(events, dup)
	}
	buffered := buildStore(t, events, Options{TargetChunkEvents: 128})
	for _, sortBuf := range []int{97, gatherRecords + 3} {
		spilled := buildStore(t, events, Options{TargetChunkEvents: 128, SortBufferEvents: sortBuf})
		for series := uint32(0); series < 3; series++ {
			a := collect(t, buffered, series, math.Inf(-1), math.Inf(1))
			b := collect(t, spilled, series, math.Inf(-1), math.Inf(1))
			if !sameEvents(a, b) {
				t.Fatalf("sort buffer %d, series %d: spilled build order diverges from buffered (%d vs %d events)", sortBuf, series, len(a), len(b))
			}
		}
	}
}

func TestWindowReadsOnlyOverlappingChunks(t *testing.T) {
	// One series, events at regular positions: chunk time-ranges tile the
	// window, so a narrow read must touch ~1 chunk.
	events := make([]ev, 10000)
	for i := range events {
		at := float64(i) / 100
		events[i] = ev{series: 0, state: 0, start: at, end: at + 0.005}
	}
	s := buildStore(t, events, Options{TargetChunkEvents: 500, ChunkCacheBytes: -1})
	if n := s.SeriesChunks(0); n != 20 {
		t.Fatalf("SeriesChunks = %d, want 20", n)
	}
	got := collect(t, s, 0, 50, 51)
	if len(got) == 0 {
		t.Fatal("narrow window returned no events")
	}
	st := s.ReadStats()
	if st.ChunksRead > 2 {
		t.Fatalf("narrow window read %d chunks, want ≤ 2 of 20", st.ChunksRead)
	}
	if st.BytesRead <= 0 {
		t.Fatalf("BytesRead = %d after a disk read", st.BytesRead)
	}
}

func TestChunkCacheHitsAndEviction(t *testing.T) {
	events := make([]ev, 4000)
	for i := range events {
		at := float64(i) / 40
		events[i] = ev{series: 0, state: 0, start: at, end: at + 0.01}
	}
	s := buildStore(t, events, Options{TargetChunkEvents: 100})
	collect(t, s, 0, 10, 12)
	first := s.ReadStats()
	collect(t, s, 0, 10, 12)
	second := s.ReadStats()
	if second.ChunksRead != first.ChunksRead {
		t.Fatalf("repeat read hit disk: %d → %d chunk reads", first.ChunksRead, second.ChunksRead)
	}
	if second.CacheHits <= first.CacheHits {
		t.Fatalf("repeat read recorded no cache hits")
	}
	if s.OpenChunkBytes() <= 0 {
		t.Fatal("OpenChunkBytes = 0 with chunks cached")
	}

	// A tiny budget keeps the cache bounded under a scan of every chunk.
	tiny := buildStore(t, events, Options{TargetChunkEvents: 100, ChunkCacheBytes: 4000})
	collect(t, tiny, 0, math.Inf(-1), math.Inf(1))
	if got := tiny.OpenChunkBytes(); got > 2*4000 {
		t.Fatalf("OpenChunkBytes = %d, budget 4000", got)
	}
}

func TestEmptyStore(t *testing.T) {
	s := buildStore(t, nil, Options{})
	if s.NumEvents() != 0 || s.NumChunks() != 0 {
		t.Fatalf("empty store: %d events, %d chunks", s.NumEvents(), s.NumChunks())
	}
	if got := collect(t, s, 0, 0, 100); len(got) != 0 {
		t.Fatalf("empty store returned %d events", len(got))
	}
}

func TestMetaRoundTrip(t *testing.T) {
	s := buildStore(t, []ev{{series: 1, state: 2, start: 1, end: 2}}, Options{})
	m := s.Meta()
	if len(m.Series) != 4 || m.Series[1] != "job.0/rank.1" {
		t.Fatalf("Series = %v", m.Series)
	}
	if len(m.States) != 3 || m.States[2] != "send" {
		t.Fatalf("States = %v", m.States)
	}
	if m.Start != 0 || m.End != 100 || m.NumEvents != 1 {
		t.Fatalf("window/count = %g/%g/%d", m.Start, m.End, m.NumEvents)
	}
}

func TestRemoveOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tmp.oces")
	b, _ := Create(path, Meta{Series: []string{"r"}, States: []string{"s"}}, Options{RemoveOnClose: true})
	b.Add(0, 0, 1, 2)
	s, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("store file survived RemoveOnClose: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestAbortRemovesRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ab.oces")
	b, _ := Create(path, Meta{Series: []string{"r"}, States: []string{"s"}}, Options{SortBufferEvents: 10})
	for i := 0; i < 100; i++ {
		b.Add(0, 0, float64(i), float64(i)+1)
	}
	b.Abort()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("Abort left %d files behind: %v", len(ents), ents)
	}
}

// --- durability edges: every damage mode must classify as IsCorrupt ---

func corruptStorePath(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	s := buildStore(t, randomEvents(rng, 2000, 4), Options{TargetChunkEvents: 128})
	path := s.Path()
	s.Close()
	return path
}

func mustFailCorrupt(t *testing.T, path, what string) {
	t.Helper()
	s, err := Open(path, Options{})
	if err == nil {
		// Open validated; the damage may be inside a chunk payload.
		defer s.Close()
		for series := uint32(0); series < 4; series++ {
			if err = s.ForEachOverlapping(series, math.Inf(-1), math.Inf(1), func(int32, float64, float64) {}); err != nil {
				break
			}
		}
	}
	if err == nil {
		t.Fatalf("%s: no error", what)
	}
	if !IsCorrupt(err) {
		t.Fatalf("%s: error not IsCorrupt-classifiable: %v", what, err)
	}
}

func TestTruncatedStoreIsCorrupt(t *testing.T) {
	path := corruptStorePath(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{len(data) - 1, len(data) / 2, headerSize + 10, 4} {
		if err := os.WriteFile(path, data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		mustFailCorrupt(t, path, "truncation")
	}
}

func TestBadFooterChecksumIsCorrupt(t *testing.T) {
	path := corruptStorePath(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one directory byte: the footer CRC over dir+meta must catch it.
	data[len(data)-footerSize-200] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFailCorrupt(t, path, "flipped directory byte")
}

func TestVersionMismatchIsCorrupt(t *testing.T) {
	path := corruptStorePath(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 99 // version field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFailCorrupt(t, path, "version mismatch")

	copy(data[:4], "NOPE")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFailCorrupt(t, path, "bad magic")
}

func TestFlippedChunkByteIsCorrupt(t *testing.T) {
	path := corruptStorePath(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage inside the chunk region (past the header, before the
	// directory): Open succeeds, the read of that chunk must fail loud.
	data[headerSize+50] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFailCorrupt(t, path, "flipped chunk byte")
}

// TestAddRejectsEventsTheStoreCannotHold checks that Add refuses, with an
// error naming the series, an event outside the series table (Open would
// skip its chunk, so NumEvents and the reads would disagree) and an
// event without a finite, non-inverted interval (NaN has no place in the
// start order).
func TestAddRejectsEventsTheStoreCannotHold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.oces")
	b, err := Create(path, Meta{Series: []string{"r0", "r1"}, States: []string{"s0", "s1"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Abort()
	inf, nan := math.Inf(1), math.NaN()
	for _, e := range []ev{
		{2, 0, 1, 2}, {7, 0, 1, 2}, {math.MaxUint32, 0, 1, 2},
		{1, 0, nan, 2}, {1, 0, 1, nan}, {1, 0, nan, nan},
		{1, 0, -inf, 2}, {1, 0, 1, inf}, {1, 0, -inf, inf}, {1, 0, inf, inf},
		{0, 0, 2, 1}, {0, 0, 0, -math.SmallestNonzeroFloat64},
		{0, 2, 1, 2}, {1, 5, 1, 2}, {0, -1, 1, 2}, {1, math.MaxInt32, 1, 2},
	} {
		err := b.Add(e.series, e.state, e.start, e.end)
		if err == nil {
			t.Fatalf("Add(%+v) accepted", e)
		}
		if want := fmt.Sprintf("series %d ", e.series); !strings.Contains(err.Error(), want) {
			t.Fatalf("Add(%+v): error %q does not name the series", e, err)
		}
		if want := fmt.Sprintf("state %d ", e.state); (e.state < 0 || e.state > 1) && !strings.Contains(err.Error(), want) {
			t.Fatalf("Add(%+v): error %q does not name the state", e, err)
		}
	}
	// The rejected events left no trace: the valid ones alone are stored.
	for _, e := range []ev{{1, 1, 1, 2}, {0, 0, math.Copysign(0, -1), 0}, {1, 0, 3, 3}} {
		if err := b.Add(e.series, e.state, e.start, e.end); err != nil {
			t.Fatalf("Add(%+v): %v", e, err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d, want 3", s.NumEvents())
	}
	if got := len(collect(t, s, 0, math.Inf(-1), math.Inf(1))) + len(collect(t, s, 1, math.Inf(-1), math.Inf(1))); got != 3 {
		t.Fatalf("reads visit %d events, want 3", got)
	}
}
