package microscopic

import (
	"math"
	"math/rand"
	"testing"

	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

// mustBuildAt and mustShift unwrap the fallible index API for tests on
// RAM-backed reslicers, where fills cannot fail.
func mustBuildAt(t *testing.T, r *Reslicer, sl timeslice.Slicer) *Model {
	t.Helper()
	m, err := r.BuildAt(sl)
	if err != nil {
		t.Fatalf("BuildAt: %v", err)
	}
	return m
}

func mustShift(t *testing.T, r *Reslicer, m *Model, k int) (*Model, SliceOverlap) {
	t.Helper()
	nm, ov, err := r.Shift(m, k)
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	return nm, ov
}

// randomTrace builds a trace with overlapping, unsorted events so the
// index's sorting and interval queries are actually exercised.
func randomTrace(rng *rand.Rand, nRes, nEv int, winEnd float64) *trace.Trace {
	paths := make([]string, nRes)
	for i := range paths {
		cluster := string(rune('A' + i%3))
		paths[i] = "c" + cluster + "/r" + string(rune('a'+i))
	}
	tr := trace.New(paths, []string{"work", "wait", "io"})
	tr.Start, tr.End = 0, winEnd
	for i := 0; i < nEv; i++ {
		s := trace.ResourceID(rng.Intn(nRes))
		x := trace.StateID(rng.Intn(3))
		start := rng.Float64() * winEnd
		dur := rng.Float64() * winEnd / 7
		tr.Add(s, x, start, start+dur)
	}
	return tr
}

func modelsBitIdentical(t *testing.T, got, want *Model, label string) {
	t.Helper()
	if got.NumSlices() != want.NumSlices() || got.NumStates() != want.NumStates() {
		t.Fatalf("%s: shape mismatch", label)
	}
	for x := 0; x < want.NumStates(); x++ {
		g, w := got.StateRow(x), want.StateRow(x)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: d_%d cell %d: got %v, want %v (diff %g)", label, x, i, g[i], w[i], g[i]-w[i])
			}
		}
	}
}

// TestReslicerMatchesBuild: a reslicer's full build equals Build. Both
// fill cells through the same kernel, but a cell sums its events in a
// different order: Build in trace order, the index in (start, trace)
// order per resource. On a start-sorted trace the two orders agree and
// the models must be bit-identical; on an unsorted one the sums may differ
// in the last ulp, so that case keeps a rounding tolerance.
func TestReslicerMatchesBuild(t *testing.T) {
	check := func(t *testing.T, tr *trace.Trace, cmp func(got, want *Model)) {
		want, err := Build(tr, Options{Slices: 16})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReslicer(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Build(Options{Slices: 16})
		if err != nil {
			t.Fatal(err)
		}
		if got.Reslicer() != r {
			t.Fatal("model not bound to its reslicer")
		}
		cmp(got, want)
	}
	t.Run("sorted", func(t *testing.T) {
		tr := randomTrace(rand.New(rand.NewSource(1)), 6, 500, 10)
		tr.Sort()
		check(t, tr, func(got, want *Model) { modelsBitIdentical(t, got, want, "sorted trace") })
	})
	t.Run("unsorted", func(t *testing.T) {
		tr := randomTrace(rand.New(rand.NewSource(1)), 6, 500, 10)
		check(t, tr, func(got, want *Model) {
			for x := 0; x < want.NumStates(); x++ {
				g, w := got.StateRow(x), want.StateRow(x)
				for i := range w {
					if math.Abs(g[i]-w[i]) > 1e-9*(1+math.Abs(w[i])) {
						t.Fatalf("d_%d cell %d: reslicer %v, Build %v", x, i, g[i], w[i])
					}
				}
			}
		})
	})
}

// TestShiftBitIdenticalToFullFill: after any chain of pans, the model is
// bit-identical to one full fill at the final slicer — the model-layer half
// of the incremental-equivalence guarantee.
func TestShiftBitIdenticalToFullFill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng, 7, 800, 20)
	r, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(Options{Slices: 15})
	if err != nil {
		t.Fatal(err)
	}
	shifts := []int{1, -2, 5, 40, -40, 3, -1, -1, 7}
	for step, k := range shifts {
		var ov SliceOverlap
		m, ov = mustShift(t, r, m, k)
		if want := 15 - abs(k); (want < 0 && ov.W != 0) || (want >= 0 && ov.W != max(0, want)) {
			t.Fatalf("step %d: Shift(%d) overlap W=%d", step, k, ov.W)
		}
		fresh := mustBuildAt(t, r, m.Slicer)
		modelsBitIdentical(t, m, fresh, "after shift chain")
	}
}

// TestZoomEquivalence: zooming re-slices exactly the covered range; a
// full-width zoom degenerates to a pan with full overlap bookkeeping.
func TestZoomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := randomTrace(rng, 6, 600, 12)
	r, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(Options{Slices: 12})
	if err != nil {
		t.Fatal(err)
	}
	zm, ov, err := r.Zoom(m, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ov.Shared() {
		t.Errorf("narrowing zoom reported overlap %+v", ov)
	}
	wantLo, wantHi := m.Slicer.IntervalBounds(3, 8)
	if zm.Slicer.Start != wantLo || zm.Slicer.End != wantHi {
		t.Errorf("zoom window [%v,%v), want [%v,%v)", zm.Slicer.Start, zm.Slicer.End, wantLo, wantHi)
	}
	modelsBitIdentical(t, zm, mustBuildAt(t, r, zm.Slicer), "zoom")

	// Zoom out from the zoomed view, back over a wider range.
	om, ov, err := r.Zoom(zm, -6, 17)
	if err != nil {
		t.Fatal(err)
	}
	if ov.Shared() {
		t.Errorf("zoom-out reported overlap %+v", ov)
	}
	modelsBitIdentical(t, om, mustBuildAt(t, r, om.Slicer), "zoom out")

	// Full-width zoom == pan.
	pm, ov, err := r.Zoom(m, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !ov.Shared() || ov.W != 10 || ov.OldLo != 2 || ov.NewLo != 0 {
		t.Errorf("full-width zoom overlap %+v, want pan by 2", ov)
	}
	sm, _ := mustShift(t, r, m, 2)
	modelsBitIdentical(t, pm, sm, "full-width zoom vs pan")

	if _, _, err := r.Zoom(m, 5, 4); err == nil {
		t.Error("inverted zoom range accepted")
	}
}

// TestWindowArbitrary: an absolute window off the trace's grid fills from
// the index exactly as a trace pass over the same window does.
func TestWindowArbitrary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 5, 400, 10)
	tr.Sort()
	r, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(tr, Options{Slices: 10, Start: 2.345, End: 8.901})
	if err != nil {
		t.Fatal(err)
	}
	modelsBitIdentical(t, mustBuildAt(t, r, mustSlicer(t, 2.345, 8.901, 10)), want, "window")
}

// TestShiftConservesMass: panning must neither invent nor lose event time
// on the surviving slices, and the total over a window fully containing
// the trace equals the trace's total busy time.
func TestShiftConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := randomTrace(rng, 4, 300, 10)
	r, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(Options{Slices: 10, Start: -5, End: 15})
	if err != nil {
		t.Fatal(err)
	}
	total := m.TotalTime()
	var want float64
	for _, e := range tr.Events {
		want += e.Duration()
	}
	if math.Abs(total-want) > 1e-6*(1+want) {
		t.Fatalf("total time %v, events sum %v", total, want)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestReslicerRejectsCorruptEvents: indexing must error (not panic) on
// out-of-range state or resource IDs, with either backend.
func TestReslicerRejectsCorruptEvents(t *testing.T) {
	base := func() *trace.Trace {
		tr := trace.New([]string{"c/a", "c/b"}, []string{"s"})
		tr.Start, tr.End = 0, 1
		tr.Add(0, 0, 0, 0.5)
		return tr
	}
	badState := base()
	badState.Add(1, 7, 0, 1)
	badRes := base()
	badRes.Add(9, 0, 0, 1)
	for name, tr := range map[string]*trace.Trace{"state": badState, "resource": badRes} {
		if _, err := NewReslicer(tr); err == nil {
			t.Errorf("NewReslicer accepted corrupt %s", name)
		}
		if _, err := NewReslicerIndexed(TraceSource(tr), IndexOptions{Mode: IndexDisk, Dir: t.TempDir()}); err == nil {
			t.Errorf("disk index accepted corrupt %s", name)
		}
	}
}

// TestGridOverlap: the shared window-arithmetic helper must report the
// clamped pan overlap for on-grid slicers and nothing for off-grid or
// reshaped windows.
func TestGridOverlap(t *testing.T) {
	base, err := timeslice.New(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		new  timeslice.Slicer
		want SliceOverlap
	}{
		{"identity", base, SliceOverlap{OldLo: 0, NewLo: 0, W: 5}},
		{"pan+2", base.Shift(2), SliceOverlap{OldLo: 2, NewLo: 0, W: 3}},
		{"pan-3", base.Shift(-3), SliceOverlap{OldLo: 0, NewLo: 3, W: 2}},
		{"pan past width", base.Shift(5), SliceOverlap{}},
		{"pan far negative", base.Shift(-17), SliceOverlap{}},
	}
	for _, tc := range cases {
		if got := GridOverlap(base, tc.new); got != tc.want {
			t.Errorf("%s: GridOverlap = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// Shift() recovers the pan distance from a shared overlap.
	if k := GridOverlap(base, base.Shift(2)).Shift(); k != 2 {
		t.Errorf("Shift() = %d, want 2", k)
	}
	if k := GridOverlap(base, base.Shift(-3)).Shift(); k != -3 {
		t.Errorf("Shift() = %d, want -3", k)
	}
	// Off-grid: a window assembled independently shares nothing.
	other, err := timeslice.New(0.5, 10.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := GridOverlap(base, other); got.Shared() {
		t.Errorf("off-grid windows report overlap %+v", got)
	}
	// Reshaped: same span, different |T|.
	reshaped, err := timeslice.New(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := GridOverlap(base, reshaped); got.Shared() {
		t.Errorf("reshaped windows report overlap %+v", got)
	}
}
