package server

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/partition"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

// ladderTrace registers a random trace of nRes resources (three clusters
// of two machines) and nEv events over [0, winEnd).
func ladderTrace(t *testing.T, rng *rand.Rand, nRes, nEv int, winEnd float64) *Trace {
	t.Helper()
	paths := make([]string, nRes)
	for i := range paths {
		paths[i] = "c" + strconv.Itoa(i%3) + "/m" + strconv.Itoa(i%6) + "/r" + strconv.Itoa(i)
	}
	tt := trace.New(paths, []string{"work", "wait", "io"})
	tt.Start, tt.End = 0, winEnd
	for i := 0; i < nEv; i++ {
		start := rng.Float64() * winEnd
		tt.Add(trace.ResourceID(rng.Intn(nRes)), trace.StateID(rng.Intn(3)), start, start+rng.Float64()*winEnd/9)
	}
	tr, err := NewRegistry().LoadTrace("ladder", tt)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// zoomSlicer addresses the window covered by slices [lo, hi] of sl,
// re-sliced to sl's slice count: a full-width range is a pan on sl's
// grid, any other range a different resolution level.
func zoomSlicer(t *testing.T, sl timeslice.Slicer, lo, hi int) timeslice.Slicer {
	t.Helper()
	if hi-lo+1 == sl.N {
		return sl.Shift(lo)
	}
	start, end := sl.IntervalBounds(lo, hi)
	z, err := timeslice.New(start, end, sl.N)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// requireScratchIdentical asserts that got equals a scratch input pass
// over the trace's event index at got's window down to the float: every
// candidate area's gain, loss and aggregated proportions, the
// normalization constants, and the partitions of several solves.
func requireScratchIdentical(t *testing.T, tr *Trace, got *core.Input, opt core.Options, label string) {
	t.Helper()
	ctx := context.Background()
	m, err := tr.resl.BuildAt(got.Model.Slicer)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewInputContext(ctx, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	gg, gl := got.RootGainLoss()
	wg, wl := want.RootGainLoss()
	if gg != wg || gl != wl {
		t.Fatalf("%s: root gain/loss (%v,%v), scratch (%v,%v)", label, gg, gl, wg, wl)
	}
	for _, n := range m.H.Nodes {
		for i := 0; i < want.T; i++ {
			for j := i; j < want.T; j++ {
				ar := partition.Area{Node: n, I: i, J: j}
				g1, l1 := got.EvaluateArea(ar)
				g2, l2 := want.EvaluateArea(ar)
				if g1 != g2 || l1 != l2 {
					t.Fatalf("%s: area %s [%d,%d]: gain %v/%v loss %v/%v", label, n.Path, i, j, g1, g2, l1, l2)
				}
				r1, r2 := got.Describe(ar).Rho, want.Describe(ar).Rho
				for x := range r2 {
					if r1[x] != r2[x] {
						t.Fatalf("%s: area %s [%d,%d]: rho[%d] %v, scratch %v", label, n.Path, i, j, x, r1[x], r2[x])
					}
				}
			}
		}
	}
	for _, p := range []float64{0.2, 0.5, 0.8} {
		a, err := got.NewSolver().RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := want.NewSolver().RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Signature() != b.Signature() || a.Gain != b.Gain || a.Loss != b.Loss || a.PIC != b.PIC {
			t.Fatalf("%s: partition at p=%v differs from scratch", label, p)
		}
	}
}

// TestLadderZoomBitIdentity is the ladder's scratch-equivalence property:
// any random sequence of zooms, pans and revisits through InputCache.Get
// — hits, same-level derivations and scratch builds alike — yields Inputs
// bit-identical to a scratch build at the served window.
func TestLadderZoomBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run("workers"+strconv.Itoa(workers), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(workers)*59 + 1))
			tr := ladderTrace(t, rng, 9, 900, 30)
			const T = 12
			opt := core.Options{Workers: workers}
			c := NewInputCache(DefaultCacheBytes, opt, 4)
			ctx := context.Background()
			sl, err := timeslice.New(0, 30, T)
			if err != nil {
				t.Fatal(err)
			}
			in, kind, err := c.Get(ctx, tr, sl)
			if err != nil {
				t.Fatal(err)
			}
			if kind != BuildScratch {
				t.Fatalf("first get: kind %q, want scratch", kind)
			}
			kinds := map[BuildKind]int{kind: 1}
			for step := 0; step < 18; step++ {
				var label string
				next := in.Model.Slicer
				switch rng.Intn(3) {
				case 0: // zoom into a sub-range (or out, via negative lo)
					lo := rng.Intn(2*T) - T/2
					hi := lo + 1 + rng.Intn(T+4)
					next = zoomSlicer(t, next, lo, hi)
					label = "zoom(" + strconv.Itoa(lo) + "," + strconv.Itoa(hi) + ")"
				case 1: // pan on the current grid
					k := rng.Intn(2*T) - T
					next = next.Shift(k)
					label = "pan(" + strconv.Itoa(k) + ")"
				default: // revisit the exact current window
					label = "revisit"
				}
				if in, kind, err = c.Get(ctx, tr, next); err != nil {
					t.Fatalf("step %d %s: %v", step, label, err)
				}
				kinds[kind]++
				requireScratchIdentical(t, tr, in, opt, "step "+strconv.Itoa(step)+" "+label+" ("+string(kind)+")")
			}
			if kinds[BuildHit] == 0 || kinds[BuildDerived] == 0 {
				t.Fatalf("sequence never exercised hit+derived paths: %v", kinds)
			}
		})
	}
}

// TestLadderZoomInViaFinerLevel: drilling back into a previously visited
// finer level derives from that level's resident — the event index is
// not consulted — and still matches scratch bit-identically; backing out
// to the overview is a hit on the retained coarser level.
func TestLadderZoomInViaFinerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := ladderTrace(t, rng, 9, 900, 40)
	const T = 16
	c := NewInputCache(DefaultCacheBytes, core.Options{}, 4)
	ctx := context.Background()
	sl, err := timeslice.New(0, 40, T)
	if err != nil {
		t.Fatal(err)
	}
	overview, _, err := c.Get(ctx, tr, sl)
	if err != nil {
		t.Fatal(err)
	}
	// First drill: half the window — a new (finer) level, scratch.
	fine, kind, err := c.Get(ctx, tr, zoomSlicer(t, sl, 0, T/2-1))
	if err != nil {
		t.Fatal(err)
	}
	if kind != BuildScratch {
		t.Fatalf("first drill: kind %q, want scratch", kind)
	}
	// Back out to the overview: its level is resident — a hit.
	back, kind, err := c.Get(ctx, tr, sl)
	if err != nil {
		t.Fatal(err)
	}
	if kind != BuildHit || back != overview {
		t.Fatalf("zoom out: kind %q (same input: %v), want resident hit", kind, back == overview)
	}
	// Drill again one fine slice over: same finer grid, derived.
	again, kind, err := c.Get(ctx, tr, fine.Model.Slicer.Shift(1))
	if err != nil {
		t.Fatal(err)
	}
	if kind != BuildDerived {
		t.Fatalf("re-drill: kind %q, want derived", kind)
	}
	requireScratchIdentical(t, tr, again, core.Options{}, "re-drill")
	if st := c.Snapshot(); st.ZoomScratch != 1 || st.ZoomDerived != 1 {
		t.Fatalf("zoom counters scratch=%d derived=%d, want 1 and 1", st.ZoomScratch, st.ZoomDerived)
	}
}

// TestLadderLevelCap: the ladder pins at most ladderLevels levels per
// trace load, dropping the least recently used level's pin; the unpinned
// entry stays cached like any other window.
func TestLadderLevelCap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := ladderTrace(t, rng, 6, 400, 32)
	c := NewInputCache(DefaultCacheBytes, core.Options{}, 2)
	ctx := context.Background()
	sl, err := timeslice.New(0, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, tr, sl); err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]int{{0, 3}, {0, 1}, {2, 5}} { // three more widths
		if _, _, err := c.Get(ctx, tr, zoomSlicer(t, sl, rg[0], rg[1])); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	pins := c.pinsLocked()
	c.mu.Unlock()
	levels, firstPinned := len(pins), false
	for e := range pins {
		firstPinned = firstPinned || e.level == levelOf(sl)
	}
	if levels != 2 {
		t.Fatalf("ladder pins %d levels, cap is 2", levels)
	}
	if firstPinned {
		t.Fatal("least recently used level kept its pin past the cap")
	}
	if st := c.Snapshot(); st.Entries != 4 || st.Bytes <= 0 {
		t.Fatalf("entries=%d bytes=%d, want all 4 windows cached", st.Entries, st.Bytes)
	}
	if _, kind, err := c.Get(ctx, tr, sl); err != nil || kind != BuildHit {
		t.Fatalf("unpinned level get: kind %q err %v, want a plain hit", kind, err)
	}
}

// TestLadderPinSurvivesPans: a level's most recently used window is
// exempt from the first eviction pass. With room for three windows, a
// visit to level A followed by one-off pans at level B leaves A's window
// the least recently used, so plain LRU eviction would drop it; its pin
// keeps it, and the zoom back to A is a hit.
func TestLadderPinSurvivesPans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := ladderTrace(t, rng, 6, 400, 32)
	a, err := timeslice.New(0, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	est := core.EstimateMemoryBytes(tr.resl.Hierarchy().NumNodes(), tr.resl.Hierarchy().NumLeaves(), len(tr.resl.States()), a.N)
	c := NewInputCache(7*est/2, core.Options{}, 0)
	ctx := context.Background()
	if _, _, err := c.Get(ctx, tr, a); err != nil {
		t.Fatal(err)
	}
	b := zoomSlicer(t, a, 2, 5)
	for k := 0; k <= 4; k++ {
		if _, _, err := c.Get(ctx, tr, b.Shift(k)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Snapshot(); st.Evictions == 0 {
		t.Fatal("the pans never overflowed the budget; the case no longer exercises eviction")
	}
	if _, kind, err := c.Get(ctx, tr, a); err != nil || kind != BuildHit {
		t.Fatalf("zoom back to the pinned level: kind %q err %v, want a hit", kind, err)
	}
}

// TestLadderConcurrentGet: concurrent zooms and pans over one ladder are
// race-free and every result matches scratch (run under -race).
func TestLadderConcurrentGet(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := ladderTrace(t, rng, 9, 600, 30)
	const T = 10
	opt := core.Options{Workers: 2}
	c := NewInputCache(DefaultCacheBytes, opt, 4)
	sl, err := timeslice.New(0, 30, T)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := c.Get(context.Background(), tr, sl)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			in := base
			for i := 0; i < 6; i++ {
				next := in.Model.Slicer.Shift(rng.Intn(5) - 2)
				if rng.Intn(2) == 0 {
					start, end := in.Model.Slicer.IntervalBounds(0, T/2-1)
					var err error
					if next, err = timeslice.New(start, end, T); err != nil {
						t.Error(err)
						return
					}
				}
				got, _, err := c.Get(context.Background(), tr, next)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := tr.resl.BuildAt(got.Model.Slicer)
				if err != nil {
					t.Error(err)
					return
				}
				fresh, err := core.NewInputContext(context.Background(), m, opt)
				if err != nil {
					t.Error(err)
					return
				}
				gotG, gotL := got.RootGainLoss()
				wantG, wantL := fresh.RootGainLoss()
				if gotG != wantG || gotL != wantL {
					t.Errorf("concurrent get diverged from scratch")
					return
				}
				in = got
			}
		}(int64(g) * 101)
	}
	wg.Wait()
}

// TestLadderPansKeepOneLevel: pans of one grid are one ladder level even
// when the slice width is not a power-of-two fraction, where the width
// recomputed from each pan's boundary floats drifts in the last ulp. The
// pans derive from each other without being counted as zooms, and they
// pin a single level.
func TestLadderPansKeepOneLevel(t *testing.T) {
	s, ts := newTestServer(t, quietConfig())
	const base = "/traces/art/aggregate?slices=50&lo=0&hi=40" // 0.8-wide slices
	sl, err := timeslice.New(0, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	drift := map[uint64]bool{}
	for k := 0; k < 4; k++ {
		p := sl.Shift(k)
		drift[math.Float64bits((p.End-p.Start)/float64(p.N))] = true
		resp, body := get(t, ts.URL+base+"&pan="+strconv.Itoa(k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pan %d: status %d: %s", k, resp.StatusCode, body)
		}
		want := "derived"
		if k == 0 {
			want = "scratch"
		}
		if got := resp.Header.Get(buildHeader); got != want {
			t.Fatalf("pan %d: build %q, want %q", k, got, want)
		}
	}
	if len(drift) < 2 {
		t.Fatal("boundary-derived widths agree across these pans; the case no longer exercises ulp drift")
	}
	if st := s.CacheStats(); st.ZoomDerived != 0 || st.ZoomScratch != 0 {
		t.Fatalf("pans counted as zooms: zoom_derived=%d zoom_scratch=%d", st.ZoomDerived, st.ZoomScratch)
	}
	tr, _ := s.Registry().Get("art")
	s.cache.mu.Lock()
	levels := 0
	for e := range s.cache.pinsLocked() {
		if e.key.trace == tr.ID && e.key.gen == tr.gen {
			levels++
		}
	}
	s.cache.mu.Unlock()
	if levels != 1 {
		t.Fatalf("pans of one grid pinned %d ladder levels, want 1", levels)
	}
}
