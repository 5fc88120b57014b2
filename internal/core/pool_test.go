package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
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

func TestSolverPoolBoundDefaultsToWorkers(t *testing.T) {
	in := poolTestInput(t, Options{Workers: 3})
	if got := in.SolverPoolBound(); got != 3 {
		t.Fatalf("default pool bound = %d, want the worker count 3", got)
	}
	in = poolTestInput(t, Options{Workers: 3, SolverPoolBound: 7})
	if got := in.SolverPoolBound(); got != 7 {
		t.Fatalf("explicit pool bound = %d, want 7", got)
	}
}

// TestSolverPoolBlocksAtBound acquires the full bound, checks that one
// more acquire blocks, and that releasing unblocks it — the concurrency
// contract: at most bound pooled solves run at once. Releasing a solver
// twice, or one made by NewSolver, frees no further slot.
func TestSolverPoolBlocksAtBound(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := poolTestInput(t, Options{Workers: 1, SolverPoolBound: 2})
	s1 := acquire(in)
	s2 := acquire(in)
	if s1 == s2 {
		t.Fatal("pool handed out the same solver twice")
	}
	acquired := make(chan *Solver)
	go func() { acquired <- acquire(in) }()
	select {
	case <-acquired:
		t.Fatal("third acquire succeeded with bound 2 and both solvers in flight")
	case <-time.After(50 * time.Millisecond):
	}
	in.ReleaseSolver(s1)
	var s3 *Solver
	select {
	case s3 = <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("acquire still blocked after release")
	}
	in.ReleaseSolver(s1)
	in.ReleaseSolver(in.NewSolver())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if s, err := in.AcquireSolverContext(ctx); err == nil {
		t.Fatalf("acquire succeeded with s2 and s3 in flight: a second release of s1 or a NewSolver release freed a slot (%p)", s)
	}
	in.ReleaseSolver(s2)
	in.ReleaseSolver(s3)
}

// TestSolverPoolBoundSurvivesUpdate checks the bound propagates through
// the incremental-derivation path.
func TestSolverPoolBoundSurvivesUpdate(t *testing.T) {
	tr := mpisim.ArtificialSized(8, 20)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(t, m, Options{SolverPoolBound: 5})
	next, err := in.Pan(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.SolverPoolBound(); got != 5 {
		t.Fatalf("pool bound after Pan = %d, want 5", got)
	}
}

// TestSolverPoolUnderChurn runs far more concurrent queries than the
// bound allows; everything must complete (no deadlock, no lost wakeups)
// and answers must match the sequential result.
func TestSolverPoolUnderChurn(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := poolTestInput(t, Options{Workers: 2, SolverPoolBound: 2})
	want, err := in.NewSolver().RunContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s := acquire(in)
				pt, err := s.RunContext(context.Background(), 0.5)
				in.ReleaseSolver(s)
				if err != nil {
					errs <- err
					return
				}
				if pt.Signature() != want.Signature() {
					errs <- errSignature
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errSignature = &signatureError{}

type signatureError struct{}

func (*signatureError) Error() string { return "pooled solver returned a different partition" }

func TestInputMemoryBytes(t *testing.T) {
	in := poolTestInput(t, Options{Workers: 1})
	got := in.MemoryBytes()
	// The two triangles alone are 2·nodes·T(T+1)/2 floats.
	if min := 2 * in.InputCells() * 8; got < min {
		t.Fatalf("MemoryBytes() = %d, want ≥ %d (the gain/loss arenas)", got, min)
	}
}

// acquire takes a pooled solver with a background context, which never
// gives up, so the error is always nil.
func acquire(in *Input) *Solver {
	s, _ := in.AcquireSolverContext(context.Background())
	return s
}
