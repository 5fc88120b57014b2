package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/testutil"
)

// cancelTestInput builds a mid-sized input: enough hierarchy nodes and
// slices that a sweep makes hundreds of node-level cancellation checks,
// small enough to solve in milliseconds.
func cancelTestInput(t testing.TB, opt Options) *Input {
	t.Helper()
	m, err := microscopic.Build(mpisim.ArtificialSized(16, 24), microscopic.Options{Slices: 24})
	if err != nil {
		t.Fatal(err)
	}
	return testInput(t, m, opt)
}

// cancelAfterChecks is a context that cancels itself after its Err method
// has been consulted n times. The engine consults Err at every
// cancellation point — each solver acquisition and each hierarchy-node
// boundary — so choosing n injects a cancel at the n-th cancellation
// point, which is how the property test below sprays cancels across every
// reachable point of a sweep. Checks() reports how many have been
// consumed, so a full uncancelled run measures how many points exist.
type cancelAfterChecks struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
	budget int64
}

func newCancelAfterChecks(n int64) *cancelAfterChecks {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfterChecks{Context: ctx, cancel: cancel, budget: n}
	c.left.Store(n)
	return c
}

func (c *cancelAfterChecks) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// Checks reports how many cancellation checks the engine consumed.
func (c *cancelAfterChecks) Checks() int64 { return c.budget - c.left.Load() }

// assertPoolReleased proves every pooled solver went back to the pool:
// the full bound must be acquirable without blocking past a timeout.
func assertPoolReleased(t *testing.T, in *Input) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	bound := in.SolverPoolBound()
	solvers := make([]*Solver, 0, bound)
	for i := 0; i < bound; i++ {
		s, err := in.AcquireSolverContext(ctx)
		if err != nil {
			t.Fatalf("solver %d/%d unacquirable after cancel — not released back to the pool: %v", i+1, bound, err)
		}
		solvers = append(solvers, s)
	}
	for _, s := range solvers {
		in.ReleaseSolver(s)
	}
}

// sweepPs returns a p-grid big enough that a cancel lands mid-sweep.
func sweepPs(n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = float64(i) / float64(n-1)
	}
	return ps
}

// TestRunContextCancelled checks the solver-level contract: an
// already-cancelled ctx yields ctx.Err() and no partition, and the solver
// remains usable for the next (uncancelled) run.
func TestRunContextCancelled(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := cancelTestInput(t, Options{Workers: 4})
	s := in.NewSolver()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if pt, err := s.RunContext(ctx, 0.5); !errors.Is(err, context.Canceled) || pt != nil {
		t.Fatalf("RunContext(cancelled) = (%v, %v), want (nil, context.Canceled)", pt, err)
	}

	// The scratch is reusable: the same solver must now produce the same
	// partition as a fresh one.
	got, err := s.RunContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := in.NewSolver().RunContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Signature() != want.Signature() {
		t.Error("solver reused after a cancelled run returned a different partition")
	}
}

// TestSweepCancelMidRun cancels a parallel SweepRunContext partway through and
// checks the three-part contract of the tentpole: the call returns
// ctx.Err() with no partial results, leaks no goroutines (the armed
// guard), and releases every pooled solver.
func TestSweepCancelMidRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := cancelTestInput(t, Options{Workers: 4})
	ps := sweepPs(64)

	// Measure the total number of cancellation points of a full sweep,
	// then cancel at roughly the halfway point.
	probe := newCancelAfterChecks(1 << 40)
	if _, err := in.SweepRunContext(probe, ps); err != nil {
		t.Fatal(err)
	}
	probe.cancel()

	ctx := newCancelAfterChecks(probe.Checks() / 2)
	defer ctx.cancel()
	start := time.Now()
	out, err := in.SweepRunContext(ctx, ps)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled sweep returned a partial result slice of %d entries", len(out))
	}
	// Return must be prompt: one node-level check interval, not the
	// remaining half of the sweep. The full sweep takes well under the
	// bound on any hardware; the point is that the call did not hang.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled sweep took %v to return", elapsed)
	}
	assertPoolReleased(t, in)

	// The input is unharmed: the same sweep, uncancelled, still works.
	if _, err := in.SweepRunContext(context.Background(), ps[:8]); err != nil {
		t.Fatal(err)
	}
}

// TestSignificantPsCancelMidRun is the same contract for the dichotomy
// frontier: cancel partway, expect ctx.Err(), no goroutine parked on the
// frontier cond, every solver back in the pool.
func TestSignificantPsCancelMidRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := cancelTestInput(t, Options{Workers: 4})

	probe := newCancelAfterChecks(1 << 40)
	want, err := in.SignificantPsContext(probe, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	probe.cancel()

	ctx := newCancelAfterChecks(probe.Checks() / 2)
	defer ctx.cancel()
	points, err := in.SignificantPsContext(ctx, 1e-3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SignificantPsContext returned err = %v, want context.Canceled", err)
	}
	if points != nil {
		t.Fatalf("cancelled SignificantPsContext returned %d points, want none", len(points))
	}
	assertPoolReleased(t, in)

	// And uncancelled, the ladder is reproduced exactly.
	again, err := in.SignificantPsContext(context.Background(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(want) {
		t.Fatalf("ladder after a cancelled run has %d points, want %d", len(again), len(want))
	}
	for i := range again {
		if again[i] != want[i] {
			t.Fatalf("ladder point %d changed after a cancelled run: %+v vs %+v", i, again[i], want[i])
		}
	}
}

// TestAcquireSolverContextGivesUp holds the whole pool and checks a
// blocked acquire abandons the wait on cancel — the SolverPoolBound
// escape hatch — while an already-cancelled ctx fails without claiming
// anything.
func TestAcquireSolverContextGivesUp(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := cancelTestInput(t, Options{Workers: 1, SolverPoolBound: 2})
	s1, err := in.AcquireSolverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := in.AcquireSolverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := in.AcquireSolverContext(ctx)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("acquire at a full pool returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked acquire returned %v on cancel, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked acquire did not give up on cancel")
	}

	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	if s, err := in.AcquireSolverContext(expired); err == nil {
		in.ReleaseSolver(s)
		t.Fatal("already-cancelled acquire handed out a solver")
	}

	in.ReleaseSolver(s1)
	in.ReleaseSolver(s2)
	assertPoolReleased(t, in)
}

// TestCancelInjectionNeverPartial is the property test of the satellite
// list: random cancel points injected across SweepRunContext and
// SignificantPsContext — a ctx that cancels after N engine checks (solver
// acquisitions and node boundaries), N drawn uniformly over every
// reachable point — must always yield either the complete, correct result with a nil error, or
// (nil, context.Canceled). Nothing in between, under any interleaving.
func TestCancelInjectionNeverPartial(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := cancelTestInput(t, Options{Workers: 4})
	ps := sweepPs(12)

	wantSweep, err := in.SweepRunContext(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	wantSig, err := in.SignificantPsContext(context.Background(), 5e-3)
	if err != nil {
		t.Fatal(err)
	}

	probe := newCancelAfterChecks(1 << 40)
	if _, err := in.SweepRunContext(probe, ps); err != nil {
		t.Fatal(err)
	}
	sweepChecks := probe.Checks()
	probe.cancel()
	probe = newCancelAfterChecks(1 << 40)
	if _, err := in.SignificantPsContext(probe, 5e-3); err != nil {
		t.Fatal(err)
	}
	sigChecks := probe.Checks()
	probe.cancel()

	rng := rand.New(rand.NewSource(7))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		// +2 so some trials cancel only after all useful work is done.
		n := 1 + rng.Int63n(sweepChecks+2)
		ctx := newCancelAfterChecks(n)
		out, err := in.SweepRunContext(ctx, ps)
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d (cancel after %d checks): err = %v, want context.Canceled", trial, n, err)
			}
			if out != nil {
				t.Fatalf("trial %d (cancel after %d checks): error AND %d results", trial, n, len(out))
			}
		default:
			if len(out) != len(ps) {
				t.Fatalf("trial %d: success with %d/%d results", trial, len(out), len(ps))
			}
			for i, pt := range out {
				if pt == nil {
					t.Fatalf("trial %d: success with hole at index %d", trial, i)
				}
				if pt.Signature() != wantSweep[i].Signature() {
					t.Fatalf("trial %d: result %d differs from the uncancelled sweep", trial, i)
				}
			}
		}
		ctx.cancel()

		n = 1 + rng.Int63n(sigChecks+2)
		sctx := newCancelAfterChecks(n)
		points, err := in.SignificantPsContext(sctx, 5e-3)
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d (sig cancel after %d checks): err = %v, want context.Canceled", trial, n, err)
			}
			if points != nil {
				t.Fatalf("trial %d: SignificantPsContext error AND %d points", trial, len(points))
			}
		default:
			if len(points) != len(wantSig) {
				t.Fatalf("trial %d: ladder has %d points, want %d", trial, len(points), len(wantSig))
			}
			for i := range points {
				if points[i] != wantSig[i] {
					t.Fatalf("trial %d: ladder point %d differs: %+v vs %+v", trial, i, points[i], wantSig[i])
				}
			}
		}
		sctx.cancel()
		assertPoolReleased(t, in)
	}
}
