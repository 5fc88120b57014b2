package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
)

// widerModel builds a model with enough nodes to exercise the worker pool.
func widerModel(t *testing.T, seed int64) *microscopic.Model {
	t.Helper()
	tr := mpisim.ArtificialSized(60, 24)
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 24})
	if err != nil {
		t.Fatal(err)
	}
	// Add seeded noise so ties are rare and any ordering bug shows up as
	// a different partition.
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < m.NumResources(); s++ {
		for ti := 0; ti < m.NumSlices(); ti++ {
			m.AddD(0, s, ti, 0.02*rng.Float64())
		}
	}
	return m
}

// TestParallelMatchesSequential: any worker count must produce the exact
// same matrices and partitions as the sequential path.
func TestParallelMatchesSequential(t *testing.T) {
	m := widerModel(t, 1)
	seq := testInput(t, m, Options{Workers: 1})
	for _, workers := range []int{2, 4, 8, 0} {
		par := testInput(t, m, Options{Workers: workers})
		// Input matrix arenas bit-identical.
		for c := range seq.gain {
			if seq.gain[c] != par.gain[c] || seq.loss[c] != par.loss[c] {
				t.Fatalf("workers=%d: arena cell %d differs", workers, c)
			}
		}
		for _, p := range []float64{0, 0.2, 0.5, 0.8, 1} {
			a, err := seq.NewSolver().RunContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.NewSolver().RunContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if a.Signature() != b.Signature() {
				t.Fatalf("workers=%d p=%v: partitions differ", workers, p)
			}
			if math.Abs(a.PIC-b.PIC) > 0 {
				t.Fatalf("workers=%d p=%v: pIC %v vs %v", workers, p, a.PIC, b.PIC)
			}
		}
	}
}

// TestParallelRepeatedRuns exercises matrix reuse under the parallel path.
func TestParallelRepeatedRuns(t *testing.T) {
	m := widerModel(t, 2)
	s := testInput(t, m, Options{Workers: 4}).NewSolver()
	first, err := s.RunContext(context.Background(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.RunContext(context.Background(), 0.9); err != nil {
			t.Fatal(err)
		}
		again, err := s.RunContext(context.Background(), 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if again.Signature() != first.Signature() {
			t.Fatalf("iteration %d: repeated Run(0.4) changed", i)
		}
	}
}

func BenchmarkInputPassWorkers1(b *testing.B) { benchInput(b, 1) }
func BenchmarkInputPassWorkers4(b *testing.B) { benchInput(b, 4) }

func benchInput(b *testing.B, workers int) {
	tr := mpisim.ArtificialSized(192, 48)
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 48})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testInput(b, m, Options{Workers: workers})
	}
}

func BenchmarkRunWorkers1(b *testing.B) { benchRun(b, 1) }
func BenchmarkRunWorkers4(b *testing.B) { benchRun(b, 4) }

func benchRun(b *testing.B, workers int) {
	tr := mpisim.ArtificialSized(192, 48)
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 48})
	if err != nil {
		b.Fatal(err)
	}
	s := testInput(b, m, Options{Workers: workers}).NewSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunContext(context.Background(), 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForEach pins the one worker loop: every item runs exactly once, on
// a worker numbered below min(workers, n); one worker runs every item on
// the calling goroutine and starts none; and a cancel starts no further
// item and returns ctx.Err() only once every worker has returned.
func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{0, 1, 5, 100} {
			runs := make([]atomic.Int32, n)
			var badWorker atomic.Bool
			before := runtime.NumGoroutine()
			var spawned atomic.Bool
			err := forEach(context.Background(), workers, n, func(w, i int) {
				runs[i].Add(1)
				if w < 0 || w >= min(workers, n) {
					badWorker.Store(true)
				}
				if runtime.NumGoroutine() > before {
					spawned.Store(true)
				}
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: err = %v", workers, n, err)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: item %d ran %d times", workers, n, i, c)
				}
			}
			if badWorker.Load() {
				t.Fatalf("workers=%d n=%d: an item ran on a worker outside [0, %d)", workers, n, min(workers, n))
			}
			if workers == 1 && spawned.Load() {
				t.Fatalf("n=%d: one worker started a goroutine", n)
			}
		}
	}

	for _, workers := range []int{1, 2, 7} {
		ctx, cancel := context.WithCancel(context.Background())
		var inFlight, started, afterCancel atomic.Int32
		err := forEach(ctx, workers, 100, func(_, i int) {
			if ctx.Err() != nil {
				afterCancel.Add(1)
			}
			inFlight.Add(1)
			started.Add(1)
			if i == 10 {
				cancel()
			}
			time.Sleep(time.Millisecond) // keep the other workers mid-item
			inFlight.Add(-1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled forEach returned %v", workers, err)
		}
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("workers=%d: forEach returned with %d items still running", workers, n)
		}
		// An item starts after the cancel only when its worker checked
		// ctx just before the cancel: at most one per worker besides the
		// one that cancelled. One worker runs items 0..10 and stops.
		if n := afterCancel.Load(); int(n) > workers-1 {
			t.Fatalf("workers=%d: %d items started after the cancel", workers, n)
		}
		if n := started.Load(); workers == 1 && n != 11 {
			t.Fatalf("one worker ran %d items around a cancel at item 10, want 11", n)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := forEach(ctx, 3, 10, func(_, _ int) { ran = true }); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("already-cancelled forEach: err = %v, an item ran: %v", err, ran)
	}
}
