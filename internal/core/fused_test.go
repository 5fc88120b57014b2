package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/testutil"
	"ocelotl/internal/timeslice"
)

// randomFusedModel builds a random hierarchy/slice-count/state-count model
// big enough to exercise multi-lane blocks (unlike the brute-force-sized
// randomSmallModel) while staying fast under -race.
func randomFusedModel(rng *rand.Rand) *microscopic.Model {
	paths := randomHierarchyPaths(rng, 2+rng.Intn(7))
	h, err := hierarchy.FromPaths(paths)
	if err != nil {
		panic(err)
	}
	T := 4 + rng.Intn(12)
	sl, _ := timeslice.New(0, float64(T), T)
	X := 1 + rng.Intn(3)
	states := make([]string, X)
	for x := range states {
		states[x] = "x" + strconv.Itoa(x)
	}
	m := microscopic.NewEmpty(h, sl, states)
	for s := 0; s < h.NumLeaves(); s++ {
		for ti := 0; ti < T; ti++ {
			budget := 1.0
			for x := 0; x < X; x++ {
				d := rng.Float64() * budget
				m.AddD(x, s, ti, d)
				budget -= d
			}
		}
	}
	return m
}

// randomPs draws a p list that covers the lane-blocking edge cases: empty
// through several blocks, repeated values, and the endpoints.
func randomPs(rng *rand.Rand) []float64 {
	n := rng.Intn(2*MaxLanes + 3)
	ps := make([]float64, n)
	for i := range ps {
		switch rng.Intn(6) {
		case 0:
			ps[i] = 0
		case 1:
			ps[i] = 1
		default:
			ps[i] = rng.Float64()
		}
	}
	return ps
}

// TestRunManyBitIdenticalToRun is the fused-path property test: across
// random hierarchies, dimensions, data, normalization and p lists, every
// lane of RunManyContext must equal its own single-p RunContext — same
// partition signature, same gain/loss/pIC floats — for any lane count.
func TestRunManyBitIdenticalToRun(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		m := randomFusedModel(rng)
		in := testInput(t, m, Options{Normalize: trial%2 == 1})
		ps := randomPs(rng)

		s := in.NewSolver()
		got, err := s.RunManyContext(context.Background(), ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ps) {
			t.Fatalf("trial %d: RunManyContext returned %d partitions for %d ps", trial, len(got), len(ps))
		}
		ref := in.NewSolver()
		for i, p := range ps {
			want, err := ref.RunContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			pt := got[i]
			if pt.Signature() != want.Signature() {
				t.Fatalf("trial %d p=%v (lane %d of %d): partitions differ", trial, p, i, len(ps))
			}
			if pt.Gain != want.Gain || pt.Loss != want.Loss || pt.PIC != want.PIC {
				t.Fatalf("trial %d p=%v: gain/loss/pIC (%v,%v,%v) vs Run's (%v,%v,%v)",
					trial, p, pt.Gain, pt.Loss, pt.PIC, want.Gain, want.Loss, want.PIC)
			}
		}
		// The same solver must reproduce the sweep after its lanes have
		// been overwritten (scratch reuse, like single-p solvers).
		again, err := s.RunManyContext(context.Background(), ps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if again[i].Signature() != got[i].Signature() {
				t.Fatalf("trial %d: repeated RunManyContext changed lane %d", trial, i)
			}
		}
	}
}

// TestRunManyRejectsBadP: one out-of-range entry fails the whole call
// before any lane is solved, exactly like Run — including through the
// sweep layer at every worker count (the fused lane blocks must not
// bypass the validation the per-p path performed).
func TestRunManyRejectsBadP(t *testing.T) {
	m := randomFusedModel(rand.New(rand.NewSource(7)))
	in := testInput(t, m, Options{})
	for _, ps := range [][]float64{{0.5, 2}, {-0.1}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.5}} {
		if out, err := in.NewSolver().RunManyContext(context.Background(), ps); err == nil || out != nil {
			t.Fatalf("RunManyContext(%v) = (%v, %v), want rejection", ps, out, err)
		}
	}
	for _, workers := range []int{1, 4} {
		wIn := testInput(t, m, Options{Workers: workers})
		if out, err := wIn.SweepRunContext(context.Background(), []float64{0.5, 2}); err == nil || out != nil {
			t.Fatalf("workers=%d: SweepRunContext with p=2 = (%v, %v), want rejection", workers, out, err)
		}
		if out, err := wIn.SweepQualityContext(context.Background(), []float64{0.3, math.NaN()}); err == nil || out != nil {
			t.Fatalf("workers=%d: SweepQualityContext with NaN = (%v, %v), want rejection", workers, out, err)
		}
	}
}

// TestSweepMatchesFusedAndSingle pins the sweep layer across worker
// counts: SweepRunContext/SweepQualityContext results must be
// bit-identical to per-p RunContext regardless of how the ps are
// partitioned into lane blocks.
func TestSweepMatchesFusedAndSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomFusedModel(rng)
	ps := sweepPs(23)
	ref := testInput(t, m, Options{Workers: 1})
	want := make([]QualityPoint, len(ps))
	s := ref.NewSolver()
	for i, p := range ps {
		q, err := s.QualityContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = q
	}
	for _, workers := range []int{1, 2, 5, 0} {
		in := testInput(t, m, Options{Workers: workers})
		got, err := in.SweepQualityContext(context.Background(), ps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: SweepQualityContext diverges at p=%g: %+v vs %+v", workers, ps[i], got[i], want[i])
			}
		}
	}
}

// TestSignificantPsMatchesRecursiveDichotomy proves the batched-round
// frontier samples the identical point set as the plain sequential
// recursion of the original algorithm, implemented here as the oracle on
// single-p Runs.
func TestSignificantPsMatchesRecursiveDichotomy(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		m := randomFusedModel(rng)
		in := testInput(t, m, Options{})
		eps := []float64{1e-2, 1e-3}[seed%2]

		// Oracle: the recursive dichotomy on a dedicated solver.
		s := in.NewSolver()
		quality := func(p float64) QualityPoint {
			pt, err := s.RunContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			return qualityOf(p, pt)
		}
		lo, hi := quality(0), quality(1)
		points := map[string]QualityPoint{lo.Signature: lo, hi.Signature: hi}
		var explore func(l, h QualityPoint)
		explore = func(l, h QualityPoint) {
			if l.Signature == h.Signature || h.P-l.P <= eps {
				return
			}
			mid := quality((l.P + h.P) / 2)
			if prev, ok := points[mid.Signature]; !ok || mid.P < prev.P {
				points[mid.Signature] = mid
			}
			explore(l, mid)
			explore(mid, h)
		}
		explore(lo, hi)
		want := sortedPoints(points)

		got, err := in.SignificantPsContext(context.Background(), eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: batched ladder has %d points, recursion %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: ladder point %d differs: %+v vs %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestRunManyCancellation injects cancels at every reachable engine check
// of a fused multi-block solve: the result is always either complete and
// bit-identical or (nil, context.Canceled) — never lanes next to holes —
// and the solver stays usable.
func TestRunManyCancellation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := cancelTestInput(t, Options{Workers: 1})
	ps := sweepPs(2*MaxLanes + 3) // three blocks
	s := in.NewSolver()
	want, err := s.RunManyContext(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}

	probe := newCancelAfterChecks(1 << 40)
	if _, err := s.RunManyContext(probe, ps); err != nil {
		t.Fatal(err)
	}
	checks := probe.Checks()
	probe.cancel()

	rng := rand.New(rand.NewSource(11))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Int63n(checks+2)
		ctx := newCancelAfterChecks(n)
		out, err := s.RunManyContext(ctx, ps)
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d (cancel after %d checks): err = %v", trial, n, err)
			}
			if out != nil {
				t.Fatalf("trial %d: error AND %d lanes", trial, len(out))
			}
		default:
			if len(out) != len(ps) {
				t.Fatalf("trial %d: success with %d/%d lanes", trial, len(out), len(ps))
			}
			for i, pt := range out {
				if pt == nil || pt.Signature() != want[i].Signature() {
					t.Fatalf("trial %d: lane %d differs from the uncancelled solve", trial, i)
				}
			}
		}
		ctx.cancel()
	}
}

// TestInputBuildCancellation covers the cancellable input pass: a ctx
// cancelled mid-fill aborts NewInputContext and UpdateContext promptly
// with no Input, an already-dead ctx fails before the arenas are
// allocated, and an uncancelled rebuild afterwards is bit-identical.
func TestInputBuildCancellation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	tr := mpisim.ArtificialSized(24, 60)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opt := Options{Workers: workers}

		dead, cancelDead := context.WithCancel(context.Background())
		cancelDead()
		if in, err := NewInputContext(dead, m, opt); !errors.Is(err, context.Canceled) || in != nil {
			t.Fatalf("workers=%d: NewInputContext(dead) = (%v, %v)", workers, in, err)
		}

		// Count the build's cancellation checks, then kill it halfway.
		probe := newCancelAfterChecks(1 << 40)
		want, err := NewInputContext(probe, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		probe.cancel()
		ctx := newCancelAfterChecks(probe.Checks() / 2)
		start := time.Now()
		in, err := NewInputContext(ctx, m, opt)
		if !errors.Is(err, context.Canceled) || in != nil {
			t.Fatalf("workers=%d: mid-fill cancel returned (%v, %v)", workers, in, err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("workers=%d: cancelled build took %v to return", workers, elapsed)
		}
		ctx.cancel()

		// The incremental pass honors ctx the same way.
		shifted, ov := testShift(t, r, want.Model, 3)
		probe = newCancelAfterChecks(1 << 40)
		wantUpd, err := want.UpdateContext(probe, shifted, ov)
		if err != nil {
			t.Fatal(err)
		}
		probe.cancel()
		uctx := newCancelAfterChecks(probe.Checks() / 2)
		upd, err := want.UpdateContext(uctx, shifted, ov)
		if !errors.Is(err, context.Canceled) || upd != nil {
			t.Fatalf("workers=%d: mid-fill Update cancel returned (%v, %v)", workers, upd, err)
		}
		uctx.cancel()

		// An uncancelled retry reproduces the builds float for float.
		full := testInput(t, m, opt)
		for c := range full.gain {
			if full.gain[c] != want.gain[c] || full.loss[c] != want.loss[c] {
				t.Fatalf("workers=%d: ctx build diverges from a fresh build at cell %d", workers, c)
			}
		}
		fullUpd := testUpdate(t, want, shifted, ov)
		for c := range fullUpd.gain {
			if fullUpd.gain[c] != wantUpd.gain[c] || fullUpd.loss[c] != wantUpd.loss[c] {
				t.Fatalf("workers=%d: ctx update diverges from Update at cell %d", workers, c)
			}
		}
	}
}

// TestFusedScratchAccounted: a pooled solver that has fused grows the
// Input's reported memory, and the scratch is released back with the
// solver (the pool keeps it, the bound still holds).
func TestFusedScratchAccounted(t *testing.T) {
	in := cancelTestInput(t, Options{Workers: 1, SolverPoolBound: 1})
	before := in.MemoryBytes()
	s, err := in.AcquireSolverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunManyContext(context.Background(), sweepPs(MaxLanes)); err != nil {
		t.Fatal(err)
	}
	in.ReleaseSolver(s)
	after := in.MemoryBytes()
	wantGrowth := len(in.gain) * MaxLanes * (8 + 4)
	if after < before+wantGrowth {
		t.Fatalf("MemoryBytes grew %d after fused use, want ≥ %d more", after-before, wantGrowth)
	}
	assertPoolReleased(t, in)
}
