package core

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"ocelotl/internal/microscopic"
)

// TestCoarsenBitIdentity: coarsening a fine Input is bit-identical to
// NewInputContext on the pair-merged model at the coarse grid — for random
// traces, hierarchies, factors, worker counts and factor-aligned pans of
// the fine window (the alignment ladder levels guarantee).
func TestCoarsenBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run("workers"+strconv.Itoa(workers), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(workers) * 31))
			for trial := 0; trial < 6; trial++ {
				tr := windowTrace(rng, 5+rng.Intn(7), 400, 25)
				r, err := microscopic.NewReslicer(tr)
				if err != nil {
					t.Fatal(err)
				}
				T := []int{8, 12, 16}[rng.Intn(3)]
				factor := []int{2, 4}[rng.Intn(2)]
				m, err := r.Build(microscopic.Options{Slices: T})
				if err != nil {
					t.Fatal(err)
				}
				// Pan the fine window by a factor-aligned offset so the
				// coarse grid stays anchored, as ladder levels are.
				if k := factor * (rng.Intn(5) - 2); k != 0 {
					m, _ = testShift(t, r, m, k)
				}
				opt := Options{Workers: workers, Normalize: trial%2 == 0}
				in := testInput(t, m, opt)
				coarse, err := in.CoarsenContext(context.Background(), factor)
				if err != nil {
					t.Fatalf("trial %d: CoarsenContext(%d): %v", trial, factor, err)
				}
				merged, err := in.Model.MergePairs(factor)
				if err != nil {
					t.Fatal(err)
				}
				fresh := testInput(t, merged, opt)
				requireInputsBitIdentical(t, coarse, fresh,
					"trial "+strconv.Itoa(trial)+" factor "+strconv.Itoa(factor))
				if coarse.Model.Slicer.N != T/factor {
					t.Fatalf("coarse |T| = %d, want %d", coarse.Model.Slicer.N, T/factor)
				}
				if got, want := coarse.Model.Slicer.Width(), in.Model.Slicer.Width()*float64(factor); got != want {
					t.Fatalf("coarse width %v, want %v", got, want)
				}
			}
		})
	}
}

// TestCoarsenRejectsBadFactors: non-power-of-two factors, indivisible
// slice counts and unaligned grid offsets must error rather than produce
// an off-grid level.
func TestCoarsenRejectsBadFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := windowTrace(rng, 6, 300, 20)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 12})
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(t, m, Options{})
	for _, factor := range []int{0, 1, 3, 5, 8} { // 8 ∤ 12, 3/5 not powers of 2
		if _, err := in.CoarsenContext(context.Background(), factor); err == nil {
			t.Errorf("CoarsenContext(%d) on |T|=12 succeeded, want error", factor)
		}
	}
	odd, _ := testShift(t, r, m, 1) // grid offset 1: not 2-aligned
	if _, err := testInput(t, odd, Options{}).CoarsenContext(context.Background(), 2); err == nil {
		t.Error("CoarsenContext(2) on an odd grid offset succeeded, want error")
	}
}

// TestEstimateMemoryBytes: the arithmetic estimate equals MemoryBytes of
// a freshly built Input (empty solver pool) exactly — the admission
// guard's precondition.
func TestEstimateMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		tr := windowTrace(rng, 4+rng.Intn(8), 300, 20)
		r, err := microscopic.NewReslicer(tr)
		if err != nil {
			t.Fatal(err)
		}
		T := 5 + rng.Intn(20)
		m, err := r.Build(microscopic.Options{Slices: T})
		if err != nil {
			t.Fatal(err)
		}
		in := testInput(t, m, Options{})
		est := EstimateMemoryBytes(m.H.NumNodes(), m.NumStates(), T)
		if got := int64(in.MemoryBytes()); got != est {
			t.Fatalf("trial %d: estimate %d, fresh MemoryBytes %d", trial, est, got)
		}
	}
}

// TestPyramidCancelledResolve: a cancelled context aborts every step a
// ladder resolve is made of — the scratch build, a coarsening and a zoom
// — and the same steps succeed afterwards on a live context, so nothing a
// cancelled resolve touched is left unusable.
func TestPyramidCancelledResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := windowTrace(rng, 6, 400, 20)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if in, err := NewInputContext(ctx, m, Options{}); err == nil || in != nil {
		t.Fatalf("cancelled build: input %v, err %v; want nil and ctx error", in, err)
	}
	in := testInput(t, m, Options{})
	if c, err := in.CoarsenContext(ctx, 2); err == nil || c != nil {
		t.Fatalf("cancelled coarsen: input %v, err %v; want nil and ctx error", c, err)
	}
	if z, err := in.Zoom(ctx, 2, 6); err == nil || z != nil {
		t.Fatalf("cancelled zoom: input %v, err %v; want nil and ctx error", z, err)
	}
	if _, err := in.CoarsenContext(context.Background(), 2); err != nil {
		t.Fatalf("post-cancel coarsen: %v", err)
	}
	if z, err := in.Zoom(context.Background(), 2, 6); err != nil || z == nil {
		t.Fatalf("post-cancel zoom: input %v, err %v", z, err)
	}
}

// TestPyramidZoomRejectsInvertedRange: Input.Zoom, the step a ladder
// resolve derives a zoomed level with, rejects an inverted slice range.
func TestPyramidZoomRejectsInvertedRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := windowTrace(rng, 4, 100, 10)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 8})
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(t, m, Options{})
	if _, err := in.Zoom(context.Background(), 5, 2); err == nil {
		t.Fatal("inverted zoom range succeeded")
	}
}
