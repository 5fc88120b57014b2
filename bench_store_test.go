package ocelotl

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/eventstore"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

// The out-of-core store benchmarks: build cost (the one-time price paid at
// trace load for O(window) reads forever after) and the read side, both at
// the store layer (windowed chunk reads) and end-to-end (a 1-slice pan
// through a disk-backed Reslicer, the disk counterpart of
// BenchmarkWindowPan_Incremental — their gap is the price of out-of-core).

// BenchmarkStoreBuild measures indexing the window-benchmark trace into
// the on-disk store: stream, external sort, delta-encode, write, reopen.
func BenchmarkStoreBuild(b *testing.B) {
	tr := mpisim.ArtificialSized(windowBenchS, windowBenchW)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := microscopic.NewReslicerIndexed(microscopic.TraceSource(tr),
			microscopic.IndexOptions{Mode: microscopic.IndexDisk, Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// storeBuildTimeOrderedEvents is the simulator's event budget for
// BenchmarkStoreBuild_TimeOrdered's trace (it generates about 1.27M
// events): more than DefaultSortBufferEvents, so the build spills and
// merges.
const storeBuildTimeOrderedEvents = 1_600_000

// BenchmarkStoreBuild_TimeOrdered measures indexing a case-A (NAS-PB CG,
// 64 ranks) mpisim trace sorted by start time — the order a live writer
// appends in, so every rank's events interleave — into the on-disk
// store. It is the load a followed trace pays before its first live
// view; each rank already arrives in start order.
func BenchmarkStoreBuild_TimeOrdered(b *testing.B) {
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 42, EventTarget: storeBuildTimeOrderedEvents})
	if err != nil {
		b.Fatal(err)
	}
	tr := res.Trace
	slices.SortStableFunc(tr.Events, func(x, y trace.Event) int { return cmp.Compare(x.Start, y.Start) })
	if len(tr.Events) <= eventstore.DefaultSortBufferEvents {
		b.Fatalf("%d events fit one sort buffer; the build would not spill", len(tr.Events))
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := microscopic.NewReslicerIndexed(microscopic.TraceSource(tr),
			microscopic.IndexOptions{Mode: microscopic.IndexDisk, Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
}

// BenchmarkStoreWindowRead measures a windowed read: every series, a 2%
// time window, cold decoded-chunk cache (so the chunk pruning and decode
// are what is timed, not cache hits). chunks/op reports how many chunks
// the directory let the read touch.
func BenchmarkStoreWindowRead(b *testing.B) {
	tr := mpisim.ArtificialSized(windowBenchS, windowBenchW)
	r, err := microscopic.NewReslicerIndexed(microscopic.TraceSource(tr),
		microscopic.IndexOptions{
			Mode: microscopic.IndexDisk, Dir: b.TempDir(),
			// No decoded-chunk cache: each iteration pays the real
			// pread + decode for the window it asks for.
			Store: eventstore.Options{ChunkCacheBytes: -1},
		})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	start, end := tr.Window()
	w := (end - start) * 0.02
	before := r.IndexReadStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := start + float64(i%49)/50*(end-start-w)
		sl, err := timeslice.New(lo, lo+w, windowBenchT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.BuildAt(sl); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := r.IndexReadStats()
	b.ReportMetric(float64(after.ChunksRead-before.ChunksRead)/float64(b.N), "chunks/op")
	b.ReportMetric(float64(after.BytesRead-before.BytesRead)/float64(b.N), "readB/op")
}

// BenchmarkWindowPan_DiskIndex ping-pongs a 1-slice pan through a
// disk-backed Reslicer — BenchmarkWindowPan_Incremental with the RAM
// index swapped for the store, so the delta over it is the cost of going
// out-of-core on the interactive path.
func BenchmarkWindowPan_DiskIndex(b *testing.B) {
	tr := mpisim.ArtificialSized(windowBenchS, windowBenchW)
	r, err := microscopic.NewReslicerIndexed(microscopic.TraceSource(tr),
		microscopic.IndexOptions{Mode: microscopic.IndexDisk, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	m, err := r.Build(microscopic.Options{Slices: windowBenchT})
	if err != nil {
		b.Fatal(err)
	}
	in, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := 1
		if i%2 == 1 {
			d = -1
		}
		if in, err = in.Pan(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
}
