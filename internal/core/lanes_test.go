package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"ocelotl/internal/partition"
)

// drainLaneSlabs empties the free list and returns what it held.
func drainLaneSlabs() []laneSlab {
	var out []laneSlab
	for {
		select {
		case sl := <-laneSlabs:
			idleLaneBytes.Add(-sl.bytes())
			out = append(out, sl)
		default:
			return out
		}
	}
}

// putIdle stands in for a finished run of in that returns sl: it claims
// a solve slot, as the run did before it borrowed, and hands the slab
// back through returnLanes, which frees the slot.
func putIdle(in *Input, sl laneSlab) {
	solveSlots <- struct{}{}
	in.returnLanes(sl)
}

// wideSlab returns a fresh MaxLanes slab of in's shape.
func wideSlab(in *Input) laneSlab {
	cells, strips := len(in.gain)*MaxLanes, len(in.meta)*in.T*MaxLanes
	return laneSlab{pic: make([]float64, cells), cut: make([]int32, cells), thr: make([]float64, strips)}
}

// laneBytes is the bytes of one lane of a slab of in's shape: a pIC and
// a cut entry per triangle cell, and a threshold per slice of each
// node's row strip.
func laneBytes(in *Input) int64 {
	return int64(len(in.gain))*(8+4) + int64(len(in.meta)*in.T)*8
}

// samePartitions fails unless every lane of got is bit-identical to want.
func samePartitions(t *testing.T, what string, got, want []*partition.Partition) {
	t.Helper()
	for k := range want {
		g, w := got[k], want[k]
		if g.Signature() != w.Signature() || math.Float64bits(g.Gain) != math.Float64bits(w.Gain) ||
			math.Float64bits(g.Loss) != math.Float64bits(w.Loss) || math.Float64bits(g.PIC) != math.Float64bits(w.PIC) {
			t.Fatalf("%s lane %d: %s (gain %v, loss %v) differs from %s (gain %v, loss %v)",
				what, k, g.Signature(), g.Gain, g.Loss, w.Signature(), w.Gain, w.Loss)
		}
	}
}

// TestPoisonedLaneSlabs fills the free list with slabs a larger Input of
// another shape left behind, every pIC cell and threshold NaN and every
// cut out of range, and requires each lane of a solve on them to be
// bit-identical to the same solve on a fresh zeroed slab, with each
// relaxRow body the CPU runs: the kernel must write every cell and
// threshold before it reads it.
func TestPoisonedLaneSlabs(t *testing.T) {
	defer drainLaneSlabs()
	small := cancelTestInput(t, Options{Workers: 1})
	large := testInput(t, scalingModel(t, 24, 40), Options{Workers: 1})
	if len(large.gain) <= len(small.gain) {
		t.Fatalf("poison donor has %d cells, want more than the solved Input's %d", len(large.gain), len(small.gain))
	}
	poison := func() {
		drainLaneSlabs()
		for range cap(laneSlabs) {
			sl := wideSlab(large)
			for i := range sl.pic {
				sl.pic[i] = math.NaN()
				sl.cut[i] = math.MaxInt32 - int32(i%7)
			}
			for i := range sl.thr {
				sl.thr[i] = math.NaN()
			}
			putIdle(large, sl)
		}
	}
	for _, body := range kernelBodies() {
		t.Run(bodyName(body), func(t *testing.T) {
			defer setKernel(body)()
			for _, K := range []int{1, 3, MaxLanes} {
				ps := make([]float64, K)
				for k := range ps {
					ps[k] = (float64(k) + 0.3) / float64(K)
				}
				drainLaneSlabs()
				want := make([]*partition.Partition, K)
				if err := small.NewSolver().runLanes(context.Background(), ps, want); err != nil {
					t.Fatal(err)
				}
				poison()
				got := make([]*partition.Partition, K)
				if err := small.NewSolver().runLanes(context.Background(), ps, got); err != nil {
					t.Fatal(err)
				}
				samePartitions(t, "K="+strconv.Itoa(K)+" on a poisoned slab", got, want)
			}
		})
	}
}

// TestCancelledRunLanesReturnsSlab cancels a run at each kind of check.
// Cancelled at its first check, before it waits for a solve slot, the
// run claims neither a slot nor a slab. Cancelled between nodes, it
// returns ctx.Err(), its slot is free, and the list holds the one slab
// the run borrowed.
func TestCancelledRunLanesReturnsSlab(t *testing.T) {
	defer drainLaneSlabs()
	in := cancelTestInput(t, Options{Workers: 1})
	ps := sweepPs(4)
	for _, n := range []int64{1, 2, 4, 10} {
		drainLaneSlabs()
		s := in.NewSolver()
		ctx := newCancelAfterChecks(n)
		err := s.runLanes(ctx, ps, make([]*partition.Partition, len(ps)))
		ctx.cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d checks: err = %v, want context.Canceled", n, err)
		}
		if len(solveSlots) != 0 {
			t.Fatalf("cancel after %d checks: the run kept its solve slot", n)
		}
		want := MaxLanes * laneBytes(in)
		if n == 1 {
			want = 0 // cancelled before the borrow
		}
		if slabs := len(laneSlabs); slabs != int(min(want, 1)) || IdleScratchBytes() != want {
			t.Fatalf("cancel after %d checks: free list holds %d slabs, %d bytes; want %d bytes",
				n, slabs, IdleScratchBytes(), want)
		}
	}
}

// TestFreeListTrimsIdleScratch pins what the free list keeps. Filled
// with MaxLanes slabs of a larger Input, it gives each of them to one
// smaller one-lane run, which drops it — it is wider than any block of
// the smaller shape — so after as many runs as the list holds, plus one,
// the idle scratch is that one-lane run's own slab. And a slab that
// would take the idle bytes past maxIdleLaneBytes goes to the GC.
func TestFreeListTrimsIdleScratch(t *testing.T) {
	defer drainLaneSlabs()
	drainLaneSlabs()
	small := cancelTestInput(t, Options{Workers: 1})
	large := testInput(t, scalingModel(t, 24, 40), Options{Workers: 1})
	for range cap(laneSlabs) {
		putIdle(large, wideSlab(large))
	}
	if len(laneSlabs) != cap(laneSlabs) {
		t.Fatalf("free list took %d of %d slabs of the large Input", len(laneSlabs), cap(laneSlabs))
	}
	for range cap(laneSlabs) + 1 {
		if _, err := small.NewSolver().RunContext(context.Background(), 0.4); err != nil {
			t.Fatal(err)
		}
	}
	if want := laneBytes(small); len(laneSlabs) != 1 || IdleScratchBytes() != want {
		t.Fatalf("after the small runs the free list holds %d slabs, %d bytes; want one one-lane slab of the small Input, %d bytes",
			len(laneSlabs), IdleScratchBytes(), want)
	}
	drainLaneSlabs()
	// Stand in for idle slabs that fill the byte cap without allocating
	// them.
	idleLaneBytes.Add(maxIdleLaneBytes)
	_, err := small.NewSolver().RunContext(context.Background(), 0.4)
	idle := idleLaneBytes.Add(-maxIdleLaneBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(laneSlabs) != 0 || idle != 0 {
		t.Fatalf("with the idle bytes at the cap the free list took the run's slab (%d slabs, %d bytes over the cap)", len(laneSlabs), idle)
	}
}

// TestConcurrentSolvesShareFreeList runs solves on two Inputs of
// different shapes from many goroutines at once, through the memo-free
// kernel and the memoizing sweep, so slabs pass between the two shapes
// (run it under -race): every answer must match the Input's own
// sequential reference, and afterwards the free list holds at most
// GOMAXPROCS slabs whose bytes the gauge reports exactly.
func TestConcurrentSolvesShareFreeList(t *testing.T) {
	defer drainLaneSlabs()
	drainLaneSlabs()
	rng := rand.New(rand.NewSource(29))
	ins := []*Input{
		cancelTestInput(t, Options{Workers: 2}),
		testInput(t, randomFusedModel(rng), Options{Workers: 2}),
	}
	ps := sweepPs(MaxLanes + 5)
	wants := make([][]*partition.Partition, len(ins))
	for i, in := range ins {
		wants[i] = make([]*partition.Partition, len(ps))
		for j, p := range ps {
			pt, err := in.NewSolver().RunContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			wants[i][j] = pt
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in, want := ins[g%2], wants[g%2]
			for r := 0; r < 4; r++ {
				lo := (g + r) % len(ps)
				got := make([]*partition.Partition, 1+(g+r)%MaxLanes)
				block := make([]float64, len(got))
				for k := range block {
					block[k] = ps[(lo+k)%len(ps)]
				}
				if err := in.NewSolver().runLanes(context.Background(), block, got); err != nil {
					errs <- err
					return
				}
				for k, pt := range got {
					if pt.Signature() != want[(lo+k)%len(ps)].Signature() {
						errs <- errors.New("a concurrent block diverges from the sequential solve")
						return
					}
				}
				qs, err := in.SweepQualityContext(context.Background(), ps)
				if err != nil {
					errs <- err
					return
				}
				for j, q := range qs {
					if q.Signature != want[j].Signature() {
						errs <- errors.New("a concurrent sweep diverges from the sequential solve")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	idle := IdleScratchBytes()
	held := drainLaneSlabs()
	var sum int64
	for _, sl := range held {
		sum += sl.bytes()
	}
	if len(held) > runtime.GOMAXPROCS(0) || cap(solveSlots) != runtime.GOMAXPROCS(0) {
		t.Fatalf("free list held %d idle slabs (%d solve slots), want at most GOMAXPROCS = %d", len(held), cap(solveSlots), runtime.GOMAXPROCS(0))
	}
	if idle != sum {
		t.Fatalf("IdleScratchBytes = %d, the free list's slabs hold %d", idle, sum)
	}
}

// TestSolverConcurrentRuns shares one Solver among 8 goroutines solving
// distinct ps at once, one-lane runs and fused blocks alike (run it under
// -race): a run's scratch is its borrowed slab, never the Solver, so
// every answer must be bit-identical to a fresh Solver's.
func TestSolverConcurrentRuns(t *testing.T) {
	defer drainLaneSlabs()
	in := testInput(t, randomFusedModel(rand.New(rand.NewSource(31))), Options{Workers: 2})
	const goroutines, K = 8, 3
	ps := sweepPs(goroutines * (1 + K))
	want := make([]*partition.Partition, len(ps))
	for i, p := range ps {
		pt, err := in.NewSolver().RunContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pt
	}
	s := in.NewSolver()
	got := make([]*partition.Partition, len(ps))
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one, block := g*(1+K), g*(1+K)+1
			if got[one], errs[g] = s.RunContext(context.Background(), ps[one]); errs[g] != nil {
				return
			}
			errs[g] = s.runLanes(context.Background(), ps[block:block+K], got[block:block+K])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	samePartitions(t, "a run sharing its Solver", got, want)
}
