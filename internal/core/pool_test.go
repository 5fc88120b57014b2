package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/partition"
	"ocelotl/internal/testutil"
)

func poolTestInput(t *testing.T, opt Options) *Input {
	t.Helper()
	m, err := microscopic.Build(mpisim.ArtificialSized(8, 10), microscopic.Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	return testInput(t, m, opt)
}

// heldCtx is a context that parks a run in flight: its first Err call
// (borrowLanes' check before it waits for a slot) passes, and every
// later one — the walk's node checks, made while the run holds its
// slot — blocks until release is closed. inFlight is closed at the
// first of those, so the run is known to hold a slot.
type heldCtx struct {
	context.Context
	calls    atomic.Int64
	inFlight chan struct{}
	release  chan struct{}
}

func (c *heldCtx) Err() error {
	if n := c.calls.Add(1); n > 1 {
		if n == 2 {
			close(c.inFlight)
		}
		<-c.release
	}
	return c.Context.Err()
}

// heldRun is one run parked in flight by a heldCtx.
type heldRun struct {
	ctx  *heldCtx
	done chan error
}

// holdSlots starts one run on in per solve slot of the process, each
// parked in flight mid-walk, and returns once all of them hold a slot.
func holdSlots(t *testing.T, in *Input) []heldRun {
	t.Helper()
	runs := make([]heldRun, cap(solveSlots))
	for i := range runs {
		ctx := &heldCtx{Context: context.Background(), inFlight: make(chan struct{}), release: make(chan struct{})}
		runs[i] = heldRun{ctx: ctx, done: make(chan error, 1)}
		go func(r heldRun) {
			_, err := in.NewSolver().RunContext(r.ctx, 0.5)
			r.done <- err
		}(runs[i])
		select {
		case <-ctx.inFlight:
		case <-time.After(10 * time.Second):
			t.Fatalf("held run %d/%d never got a solve slot", i+1, len(runs))
		}
	}
	return runs
}

// letGo releases a held run and waits for it to finish without error.
func (r heldRun) letGo(t *testing.T) {
	t.Helper()
	close(r.ctx.release)
	select {
	case err := <-r.done:
		if err != nil {
			t.Fatalf("held run failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held run did not finish once released")
	}
}

// assertSlotsReleased proves every solve slot is free: once a solving
// call has returned, none of its runs may still hold one.
func assertSlotsReleased(t *testing.T) {
	t.Helper()
	if n := len(solveSlots); n != 0 {
		t.Fatalf("%d of %d solve slots still held after the call returned", n, cap(solveSlots))
	}
	if n := len(laneSlabs); n > cap(solveSlots) {
		t.Fatalf("free list holds %d idle slabs, more than the %d solve slots", n, cap(solveSlots))
	}
}

// TestSolverPoolBlocksAtBound checks that the bound on concurrent solves
// is process-wide, not per Input: with every solve slot held by a run on
// Input A, a run on Input B waits, and once one of A's runs finishes it
// gets the slot and answers bit-identically to a sequential solve.
func TestSolverPoolBlocksAtBound(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	a := poolTestInput(t, Options{Workers: 1})
	b := cancelTestInput(t, Options{Workers: 1})
	want, err := b.NewSolver().RunContext(context.Background(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	held := holdSlots(t, a)
	type result struct {
		pt  *partition.Partition
		err error
	}
	got := make(chan result, 1)
	go func() {
		pt, err := b.NewSolver().RunContext(context.Background(), 0.3)
		got <- result{pt, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("run on B finished (err %v) with all %d solve slots held by runs on A", r.err, len(held))
	case <-time.After(50 * time.Millisecond):
	}
	held[0].letGo(t)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if d := samePartition(r.pt, want); d != "" {
			t.Fatalf("run on B after the wait: %s", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run on B still waiting after a slot was freed")
	}
	for _, r := range held[1:] {
		r.letGo(t)
	}
	assertSlotsReleased(t)
}

// TestSolverPoolUnderChurn runs 16 goroutines on two Inputs at once,
// far more runs than there are solve slots, through the memo-free
// kernel, the memoizing single solve and the fused sweep (run it under
// -race): everything must complete (no deadlock, no lost wakeup), every
// answer must be bit-identical to the Input's sequential solve, and
// afterwards every slot is free.
func TestSolverPoolUnderChurn(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ins := []*Input{poolTestInput(t, Options{Workers: 2}), cancelTestInput(t, Options{Workers: 2})}
	ps := sweepPs(5)
	wants := make([][]*partition.Partition, len(ins))
	for i, in := range ins {
		for _, p := range ps {
			pt, err := in.NewSolver().RunContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			wants[i] = append(wants[i], pt)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in, want := ins[g%2], wants[g%2]
			same := func(what string, got, want *partition.Partition) error {
				if d := samePartition(got, want); d != "" {
					return fmt.Errorf("%s at p = %v: %s from the sequential solve", what, want.P, d)
				}
				return nil
			}
			for r := 0; r < 5; r++ {
				j := (g + r) % len(ps)
				pt, err := in.NewSolver().RunContext(context.Background(), ps[j])
				if err == nil {
					err = same("RunContext", pt, want[j])
				}
				if err == nil {
					pt, err = in.SolveContext(context.Background(), ps[j])
				}
				if err == nil {
					err = same("SolveContext", pt, want[j])
				}
				var pts []*partition.Partition
				if err == nil {
					pts, err = in.SweepRunContext(context.Background(), ps)
				}
				for k := 0; err == nil && k < len(pts); k++ {
					err = same("SweepRunContext", pts[k], want[k])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertSlotsReleased(t)
}

// TestAcquireSolverContextGivesUp holds every solve slot and checks a
// run waiting for one abandons the wait when its ctx is cancelled —
// alone and inside a sweep — returning ctx.Err() without claiming a
// slot, and that an already-cancelled ctx fails AcquireSolverContext,
// which claims nothing and so never blocks.
func TestAcquireSolverContextGivesUp(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	a := poolTestInput(t, Options{Workers: 1})
	b := cancelTestInput(t, Options{Workers: 1})
	held := holdSlots(t, a)

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 2)
	go func() {
		_, err := b.NewSolver().RunContext(ctx, 0.5)
		got <- err
	}()
	go func() {
		_, err := b.SweepRunContext(ctx, sweepPs(4))
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("a run returned with every slot held: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	for range 2 {
		select {
		case err := <-got:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("waiting run returned %v on cancel, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiting run did not give up on cancel")
		}
	}
	if n := len(solveSlots); n != cap(solveSlots) {
		t.Fatalf("%d solve slots held after the cancelled waits, want the %d held runs'", n, cap(solveSlots))
	}

	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	if _, err := b.AcquireSolverContext(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("already-cancelled acquire returned %v, want context.Canceled", err)
	}
	if _, err := b.SolveContext(expired, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("already-cancelled solve returned %v, want context.Canceled", err)
	}
	s, err := b.AcquireSolverContext(context.Background())
	if err != nil || s == nil {
		t.Fatalf("acquire with every slot held = (%v, %v), want a solver: it claims nothing", s, err)
	}
	b.ReleaseSolver(s)

	for _, r := range held {
		r.letGo(t)
	}
	assertSlotsReleased(t)
}

func TestInputMemoryBytes(t *testing.T) {
	in := poolTestInput(t, Options{Workers: 1})
	got := in.MemoryBytes()
	// The two triangles alone are 2·nodes·T(T+1)/2 floats.
	if min := 2 * in.InputCells() * 8; got < min {
		t.Fatalf("MemoryBytes() = %d, want ≥ %d (the gain/loss arenas)", got, min)
	}
}
