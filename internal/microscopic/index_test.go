package microscopic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/trace"
)

// diskReslicer force-builds a disk-backed index for tr with small chunks
// (so windows span several) and, when spill is true, a tiny sort buffer
// (so the external merge path runs).
func diskReslicer(t *testing.T, tr *trace.Trace, spill bool) *Reslicer {
	t.Helper()
	opt := IndexOptions{
		Mode:  IndexDisk,
		Dir:   t.TempDir(),
		Store: eventstore.Options{TargetChunkEvents: 32},
	}
	if spill {
		opt.Store.SortBufferEvents = 61
	}
	r, err := NewReslicerIndexed(TraceSource(tr), opt)
	if err != nil {
		t.Fatalf("NewReslicerIndexed(disk): %v", err)
	}
	t.Cleanup(func() { r.Close() })
	if r.IndexKind() != "disk" {
		t.Fatalf("IndexKind = %q, want disk", r.IndexKind())
	}
	return r
}

// TestDiskIndexBitIdenticalToRAM is the backend contract property test:
// the same random Build/Shift/Zoom/Window sequence applied through the
// RAM index and the disk index produces bit-identical models at every
// step. Run with -race this also hammers the store's concurrent-read
// structures through the pans.
func TestDiskIndexBitIdenticalToRAM(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(40 + seed))
		tr := randomTrace(rng, 6, 900, 25)
		ram, err := NewReslicer(tr)
		if err != nil {
			t.Fatal(err)
		}
		disk := diskReslicer(t, tr, seed%2 == 0)
		if ram.NumEvents() != disk.NumEvents() {
			t.Fatalf("seed %d: event counts %d (ram) vs %d (disk)", seed, ram.NumEvents(), disk.NumEvents())
		}

		mRAM, err := ram.Build(Options{Slices: 14})
		if err != nil {
			t.Fatal(err)
		}
		mDisk, err := disk.Build(Options{Slices: 14})
		if err != nil {
			t.Fatalf("seed %d: disk Build: %v", seed, err)
		}
		modelsBitIdentical(t, mDisk, mRAM, "initial build")

		for step := 0; step < 30; step++ {
			var ovRAM, ovDisk SliceOverlap
			switch rng.Intn(4) {
			case 0: // pan
				k := rng.Intn(9) - 4
				mRAM, ovRAM = mustShift(t, ram, mRAM, k)
				mDisk, ovDisk, err = disk.Shift(mDisk, k)
			case 1: // zoom in
				lo := rng.Intn(10)
				hi := lo + 1 + rng.Intn(13-lo)
				mRAM, ovRAM, err = ram.Zoom(mRAM, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				mDisk, ovDisk, err = disk.Zoom(mDisk, lo, hi)
			case 2: // zoom out
				mRAM, ovRAM, err = ram.Zoom(mRAM, -7, 20)
				if err != nil {
					t.Fatal(err)
				}
				mDisk, ovDisk, err = disk.Zoom(mDisk, -7, 20)
			default: // arbitrary absolute window
				lo := rng.Float64() * 20
				hi := lo + 1 + rng.Float64()*10
				sl := mustSlicer(t, lo, hi, mRAM.Slicer.N)
				mRAM = mustBuildAt(t, ram, sl)
				mDisk, err = disk.BuildAt(sl)
			}
			if err != nil {
				t.Fatalf("seed %d step %d: disk op: %v", seed, step, err)
			}
			if ovRAM != ovDisk {
				t.Fatalf("seed %d step %d: overlaps diverge: %+v vs %+v", seed, step, ovRAM, ovDisk)
			}
			modelsBitIdentical(t, mDisk, mRAM, "after step")
		}
	}
}

// TestAutoModeSelectsBackendBySize: IndexAuto stays in RAM below the
// threshold and spills to disk above it, and the two give identical
// models either way.
func TestAutoModeSelectsBackendBySize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomTrace(rng, 5, 500, 15)
	small, err := NewReslicerIndexed(TraceSource(tr),
		IndexOptions{Mode: IndexAuto, Threshold: 1000, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if small.IndexKind() != "ram" {
		t.Fatalf("below threshold: kind %q, want ram", small.IndexKind())
	}
	big, err := NewReslicerIndexed(TraceSource(tr),
		IndexOptions{Mode: IndexAuto, Threshold: 100, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if big.IndexKind() != "disk" {
		t.Fatalf("above threshold: kind %q, want disk", big.IndexKind())
	}
	ms, err := small.Build(Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := big.Build(Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	modelsBitIdentical(t, mb, ms, "auto ram vs auto disk")
}

// TestDiskIndexWindowLocality pins the O(window) read contract: after a
// full build, a 1-slice pan reads only the chunks overlapping the new
// slice, not the whole store — asserted via the store's read counters.
func TestDiskIndexWindowLocality(t *testing.T) {
	// Regular events so chunk time-ranges tile the window evenly.
	tr := trace.New([]string{"c/r0", "c/r1"}, []string{"work"})
	tr.Start, tr.End = 0, 100
	for i := 0; i < 8000; i++ {
		at := float64(i%4000) / 40
		tr.Add(trace.ResourceID(i%2), 0, at, at+0.02)
	}
	r := diskReslicer(t, tr, false)
	m, err := r.Build(Options{Slices: 50})
	if err != nil {
		t.Fatal(err)
	}
	full := r.IndexReadStats()
	if full.ChunksRead == 0 {
		t.Fatal("full build read no chunks")
	}
	if _, _, err := r.Shift(m, 1); err != nil {
		t.Fatal(err)
	}
	pan := r.IndexReadStats()
	delta := pan.ChunksRead - full.ChunksRead
	// 2 series × 125 chunks each; one 2-wide slice window overlaps ≤ 3
	// chunks per series. Cache hits don't count as reads.
	if delta > 6 {
		t.Fatalf("1-slice pan read %d chunks from disk (%d total in store)", delta, full.ChunksRead)
	}
	if r.OpenChunkBytes() <= 0 {
		t.Fatal("no decoded chunks resident after reads")
	}
	if r.IndexMemoryBytes() <= 0 {
		t.Fatal("disk index reports no directory bytes")
	}
}

// TestDiskIndexConcurrentFills drives parallel BuildAt through one
// disk-backed reslicer — under -race this checks the chunk cache and
// counters; the results must all be bit-identical to the RAM index.
func TestDiskIndexConcurrentFills(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randomTrace(rng, 4, 600, 20)
	ram, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	disk := diskReslicer(t, tr, false)
	base, err := ram.Build(Options{Slices: 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sl := base.Slicer.Shift(w - 4)
			want := mustBuildAt(t, ram, sl)
			for i := 0; i < 5; i++ {
				got, err := disk.BuildAt(sl)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				for x := 0; x < want.NumStates(); x++ {
					g, ww := got.StateRow(x), want.StateRow(x)
					for c := range ww {
						if g[c] != ww[c] {
							t.Errorf("worker %d: cell diverged", w)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDiskIndexCloseFailsFills: fills after Close fail with an error —
// never a silent empty model.
func TestDiskIndexCloseFailsFills(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 3, 300, 10)
	r := diskReslicer(t, tr, false)
	m, err := r.Build(Options{Slices: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Same window as the live build: Close dropped the decoded cache, so
	// this must hit the closed file and fail.
	if _, err := r.BuildAt(m.Slicer); err == nil {
		t.Fatal("BuildAt on a closed disk index succeeded")
	}
}

func TestParseIndexMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want IndexMode
		ok   bool
	}{
		{"", IndexAuto, true},
		{"auto", IndexAuto, true},
		{"ram", IndexRAM, true},
		{"RAM", IndexRAM, true},
		{"disk", IndexDisk, true},
		{"mmap", IndexAuto, false},
	} {
		got, err := ParseIndexMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseIndexMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if IndexDisk.String() != "disk" || IndexRAM.String() != "ram" || IndexAuto.String() != "auto" {
		t.Error("IndexMode.String vocabulary drifted from the flag vocabulary")
	}
}

// TestRAMIndexAccountsMemory: the RAM backend reports its ~28 B/event
// arrays and zero open-chunk bytes. A fresh build is exactly 28 B/event;
// in-place extends count the spare capacity they grow into, which stays
// below twice the length.
func TestRAMIndexAccountsMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := randomTrace(rng, 3, 250, 10)
	r, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.IndexMemoryBytes(), int64(tr.NumEvents())*28; got != want {
		t.Fatalf("IndexMemoryBytes = %d, want %d", got, want)
	}
	prev, grown := r, r
	for tick := 0; tick < 40; tick++ {
		prev = grown
		evs := make([]trace.Event, 30)
		for i := range evs {
			s := 10 + float64(tick) + float64(i)/30
			evs[i] = trace.Event{Resource: trace.ResourceID(i % 3), State: trace.StateID(i % 3), Start: s, End: s + 0.1}
		}
		if grown, err = grown.Extend(evs, 11+float64(tick)); err != nil {
			t.Fatal(err)
		}
	}
	if p, _ := leafGrowth(prev, grown); p == 0 {
		t.Fatal("the last time-ordered extend grew no leaf in place")
	}
	perEvent := float64(grown.IndexMemoryBytes()) / float64(grown.NumEvents())
	if perEvent < 28 || perEvent > 56 {
		t.Fatalf("after in-place extends IndexMemoryBytes = %.1f B/event, want 28–56", perEvent)
	}
	if r.OpenChunkBytes() != 0 {
		t.Fatal("RAM index reports open-chunk bytes")
	}
	if r.IndexKind() != "ram" {
		t.Fatalf("IndexKind = %q", r.IndexKind())
	}
	if st := r.IndexReadStats(); st != (eventstore.ReadStats{}) {
		t.Fatalf("RAM index reports read stats %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLeafOrderMatchesStableSort checks the RAM index's leaf order —
// freezeRAM, an in-place extend and a merging extend of a stale
// snapshot — against a stable sort by start of each leaf's stream, bit
// for bit, on shuffled, in-order and tied leaves (±0 and equal starts,
// told apart by their states and ends).
func TestLeafOrderMatchesStableSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	gens := []struct {
		name  string
		start func(rng *rand.Rand, i int) float64
	}{
		{"shuffled", func(rng *rand.Rand, i int) float64 { return float64(rng.Intn(40)) / 4 }},
		{"in-order", func(rng *rand.Rand, i int) float64 { return float64(i) / 4 }},
		{"in-order-ties", func(rng *rand.Rand, i int) float64 { return float64(i / 3) }},
		{"reversed", func(rng *rand.Rand, i int) float64 { return float64(-i) }},
		{"signed-zeros", func(rng *rand.Rand, i int) float64 {
			if rng.Intn(2) == 0 {
				return negZero
			}
			return 0
		}},
	}
	stable := func(evs []indexedEvent) []indexedEvent {
		out := append([]indexedEvent(nil), evs...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
		return out
	}
	check := func(t *testing.T, what string, l ramLeaf, want []indexedEvent) {
		t.Helper()
		if len(l.start) != len(want) || len(l.end) != len(want) || len(l.state) != len(want) || len(l.maxEnd) != len(want) {
			t.Fatalf("%s: leaf holds %d events, want %d", what, len(l.start), len(want))
		}
		running := math.Inf(-1)
		for i, w := range want {
			if w.end > running {
				running = w.end
			}
			if math.Float64bits(l.start[i]) != math.Float64bits(w.start) ||
				math.Float64bits(l.end[i]) != math.Float64bits(w.end) || l.state[i] != w.state {
				t.Fatalf("%s: event %d = (%g, %g, %d), want (%g, %g, %d)", what, i,
					l.start[i], l.end[i], l.state[i], w.start, w.end, w.state)
			}
			if l.maxEnd[i] != running {
				t.Fatalf("%s: maxEnd[%d] = %g, want %g", what, i, l.maxEnd[i], running)
			}
		}
	}
	const leaves = 3
	for _, g := range gens {
		for _, n := range []int{0, 1, 2, 17, 300} {
			rng := rand.New(rand.NewSource(int64(n)))
			streams := make([][]indexedEvent, leaves)
			for leaf := range streams {
				for i := 0; i < n; i++ {
					s := g.start(rng, i)
					streams[leaf] = append(streams[leaf], indexedEvent{start: s, end: s + float64(i%4), state: int32(i % 5)})
				}
			}
			copies := func(lo, hi int) [][]indexedEvent {
				out := make([][]indexedEvent, leaves)
				for leaf, evs := range streams {
					out[leaf] = append([]indexedEvent(nil), evs[min(lo, len(evs)):min(hi, len(evs))]...)
				}
				return out
			}
			frozen := freezeRAM(copies(0, n))
			cut := n / 2
			base := freezeRAM(copies(0, cut))
			first, err := base.extend(copies(cut, n))
			if err != nil {
				t.Fatal(err)
			}
			stale, err := base.extend(copies(cut, n))
			if err != nil {
				t.Fatal(err)
			}
			for leaf, evs := range streams {
				want := stable(evs)
				check(t, fmt.Sprintf("%s n=%d leaf %d freezeRAM", g.name, n, leaf), frozen.leaves[leaf], want)
				check(t, fmt.Sprintf("%s n=%d leaf %d extend", g.name, n, leaf), first.(*ramIndex).leaves[leaf], want)
				check(t, fmt.Sprintf("%s n=%d leaf %d stale extend", g.name, n, leaf), stale.(*ramIndex).leaves[leaf], want)
			}
		}
	}
}
