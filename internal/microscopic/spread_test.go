package microscopic

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

// overlapOracle is the event→slice rule as timeslice.Slicer.Overlap
// implemented it before spread replaced it, kept verbatim as the oracle
// spread must match bit for bit: it visits every slice that intersects
// [start, end) with the overlap duration, after clipping the event to the
// window.
func overlapOracle(s timeslice.Slicer, start, end float64, visit func(slice int, seconds float64)) {
	if end <= s.Start || start >= s.End || end <= start {
		return
	}
	if start < s.Start {
		start = s.Start
	}
	if end > s.End {
		end = s.End
	}
	first, last := s.SliceOf(start), s.SliceOf(end)
	// SliceOf works on the (possibly re-derived) window, whose float
	// arithmetic may land one slice off the anchored grid; widen to the
	// true covering range — the b > a check below discards empty edges.
	for first > 0 {
		if lo, _ := s.Bounds(first); lo > start {
			first--
		} else {
			break
		}
	}
	for last < s.N-1 {
		if _, hi := s.Bounds(last); hi < end {
			last++
		} else {
			break
		}
	}
	// SliceOf(end) may land one past the real last overlapped slice when
	// end is exactly a slice boundary.
	if lo, _ := s.Bounds(last); lo >= end {
		last--
	}
	for i := first; i <= last; i++ {
		lo, hi := s.Bounds(i)
		a, b := math.Max(start, lo), math.Min(end, hi)
		if b > a {
			visit(i, b-a)
		}
	}
}

// spreadRow spreads one event over the whole window of sl, as BuildStream
// does, into a fresh row of |T| cells.
func spreadRow(sl timeslice.Slicer, start, end float64) []float64 {
	row := make([]float64, sl.N)
	spread(row, boundaries(sl, 0, sl.N-1), sl.Width(), sl.Start, sl.End, start, end)
	return row
}

func TestSpreadSimple(t *testing.T) {
	s, _ := timeslice.New(0, 10, 10)
	row := spreadRow(s, 1.5, 3.25)
	want := []float64{0, 0.5, 1, 0.25, 0, 0, 0, 0, 0, 0}
	for i := range want {
		if math.Abs(row[i]-want[i]) > 1e-12 {
			t.Errorf("slice %d got %v s, want %v s (row %v)", i, row[i], want[i], row)
		}
	}
}

func TestSpreadClipsToWindow(t *testing.T) {
	s, _ := timeslice.New(0, 10, 5)
	sum := func(row []float64) (tot float64) {
		for _, v := range row {
			tot += v
		}
		return tot
	}
	if got := sum(spreadRow(s, -3, 4)); math.Abs(got-4) > 1e-12 {
		t.Errorf("clipped total %g, want 4", got)
	}
	if got := sum(spreadRow(s, 8, 25)); math.Abs(got-2) > 1e-12 {
		t.Errorf("clipped total %g, want 2", got)
	}
}

func TestSpreadOutsideWindow(t *testing.T) {
	s, _ := timeslice.New(0, 10, 5)
	for _, e := range [][2]float64{
		{-5, -1}, {11, 15},
		{3, 3}, // zero-length
		{4, 2}, // inverted
		{math.NaN(), 4}, {2, math.NaN()},
	} {
		for i, v := range spreadRow(s, e[0], e[1]) {
			if v != 0 {
				t.Errorf("event %v added %v s to slice %d", e, v, i)
			}
		}
	}
}

func TestSpreadExactBoundary(t *testing.T) {
	s, _ := timeslice.New(0, 10, 10)
	// An event ending exactly on a slice boundary must not touch the
	// next slice.
	for i, v := range spreadRow(s, 2, 3) {
		if (v != 0) != (i == 2) {
			t.Errorf("boundary event put %v s in slice %d, want only slice 2", v, i)
		}
	}
}

// TestSpreadConservation: for any event, the per-slice overlaps sum to the
// clipped event duration and none exceeds the slice width.
func TestSpreadConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		s, err := timeslice.New(0, 1+rng.Float64()*100, n)
		if err != nil {
			return false
		}
		for k := 0; k < 20; k++ {
			a := rng.Float64()*s.End*1.2 - 0.1*s.End
			b := a + rng.Float64()*s.End*0.5
			want := math.Max(0, math.Min(b, s.End)-math.Max(a, s.Start))
			var got float64
			for _, sec := range spreadRow(s, a, b) {
				if sec < 0 || sec > s.Width()+1e-9 {
					return false
				}
				got += sec
			}
			if math.Abs(got-want) > 1e-9*(1+want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSpreadShiftMatchesOriginal: event time given to an absolute slice is
// the same number whether seen through the original or a shifted window.
func TestSpreadShiftMatchesOriginal(t *testing.T) {
	s, _ := timeslice.New(0, 9.9, 11)
	sh := s.Shift(3)
	for _, e := range [][2]float64{{0.05, 4.2}, {3.3, 3.31}, {2.7, 9.9}, {5, 6}} {
		orig, shifted := spreadRow(s, e[0], e[1]), spreadRow(sh, e[0], e[1])
		for i := 0; i+3 < s.N; i++ {
			if shifted[i] != orig[i+3] {
				t.Errorf("event %v slice %d: shifted %v, original %v", e, i+3, shifted[i], orig[i+3])
			}
		}
	}
}

// fuzzSlicer builds the slicer kind selects — New, a Shift of it, or a
// CoarsenGrid of a finer shifted grid — or reports false outside the
// engine's regime.
func fuzzSlicer(kind uint8, start, span float64, n, k int) (timeslice.Slicer, bool) {
	if !saneSlicerParams(start, span, n) || n > 64 || k < -(1<<12) || k > 1<<12 {
		return timeslice.Slicer{}, false
	}
	var sl timeslice.Slicer
	var err error
	switch kind % 3 {
	case 0:
		sl, err = timeslice.New(start, start+span, n)
	case 1:
		sl, err = timeslice.New(start, start+span, n)
		sl = sl.Shift(k)
	default:
		f := 2 << (kind / 3 % 2)
		if sl, err = timeslice.New(start, start+span, n*f); err == nil {
			sl, err = sl.Shift(k * f).CoarsenGrid(f)
		}
	}
	return sl, err == nil
}

// fuzzTime turns a selector and a raw float into an event end: the raw
// value (in or out of the window), a slice boundary, a boundary's float
// neighbour, NaN, ±Inf, −0 or a subnormal.
func fuzzTime(sel uint8, raw float64, sl timeslice.Slicer) float64 {
	edge, _ := sl.Bounds(int(sel>>3) % (sl.N + 1))
	switch sel & 7 {
	case 1:
		return edge
	case 2:
		return math.Nextafter(edge, math.Inf(1))
	case 3:
		return math.Nextafter(edge, math.Inf(-1))
	case 4:
		return math.NaN()
	case 5:
		return math.Copysign(math.Inf(1), raw)
	case 6:
		return math.Copysign(0, -1)
	case 7:
		return math.Copysign(math.SmallestNonzeroFloat64*float64(sel>>3), raw)
	}
	return raw
}

// FuzzSpread checks both callers of the event→cell kernel against the
// verbatim pre-kernel Overlap: BuildStream over a whole New window, and
// Reslicer.fillRange over slices lo..hi of a New, shifted or coarsened
// window with the old per-slice [lo, hi] filter. Every cell must match
// in its Float64bits, and fillRange must leave cells outside lo..hi as it
// found them.
//
// An event that is not trace.Event.Valid (a NaN or infinite time, or
// End < Start) never reaches spread through a load: Build and NewReslicer
// must reject it, naming its index. The same values still drive spread
// by a direct call with each caller's arguments, so the kernel's own
// guards stay checked against the oracle.
func FuzzSpread(f *testing.F) {
	f.Add(uint8(0), 0.0, 10.0, 10, 0, 0, 9, uint8(0), uint8(0), 1.5, 3.25)
	f.Add(uint8(1), 0.1, 7.3, 13, 5, 2, 7, uint8(1<<3|1), uint8(6<<3|1), 0.0, 0.0)
	f.Add(uint8(2), 0.0, 9.9, 11, -3, 0, 10, uint8(4), uint8(0), 0.0, 4.0)
	f.Add(uint8(5), -1.0, 2.0, 2, 0, 0, 1, uint8(7|5<<3), uint8(6), 1.0, 1.0)
	f.Add(uint8(1), 1e9, 0.125, 64, -9, 10, 40, uint8(5), uint8(5), -1.0, 1.0)
	f.Add(uint8(0), 3.0, 1.0, 7, 0, 3, 2, uint8(2|3<<3), uint8(3|3<<3), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, kind uint8, start, span float64, n, k, lo, hi int,
		aSel, bSel uint8, a, b float64) {
		sl, ok := fuzzSlicer(kind, start, span, n, k)
		if !ok {
			t.Skip("slicer outside the engine's regime")
		}
		a, b = fuzzTime(aSel, a, sl), fuzzTime(bSel, b, sl)
		N := sl.N
		lo = int(uint(lo) % uint(N))
		hi = lo + int(uint(hi)%uint(N-lo))

		// The oracles: the whole window from zero, and slices lo..hi
		// over cells already holding time.
		wantRow := make([]float64, N)
		overlapOracle(sl, a, b, func(t int, sec float64) { wantRow[t] += sec })
		held := make([]float64, N)
		for i := range held {
			held[i] = 0.1 * float64(i+1)
		}
		wantRange := slices.Clone(held)
		overlapOracle(sl, a, b, func(t int, sec float64) {
			if t >= lo && t <= hi {
				wantRange[t] += sec
			}
		})

		tr := trace.New([]string{"c/r"}, []string{"x"})
		tr.Start, tr.End = 0, 1
		tr.Add(0, 0, a, b)

		if !tr.Events[0].Valid() {
			if _, err := Build(tr, Options{Slices: N, Start: sl.Start, End: sl.End}); err == nil || !strings.Contains(err.Error(), "event 0 ") {
				t.Fatalf("Build of invalid event [%v,%v): error %v, want one naming event 0", a, b, err)
			}
			if _, err := NewReslicer(tr); err == nil || !strings.Contains(err.Error(), "event 0 ") {
				t.Fatalf("NewReslicer of invalid event [%v,%v): error %v, want one naming event 0", a, b, err)
			}
			cellsBitIdentical(t, "spread, BuildStream's call", spreadRow(sl, a, b), wantRow, a, b)
			row := slices.Clone(held)
			spreadRange(row, sl, lo, hi, a, b)
			cellsBitIdentical(t, "spread, fillRange's call", row, wantRange, a, b)
			return
		}

		// BuildStream shape: a whole New window, cells start at zero.
		if kind%3 == 0 {
			m, err := Build(tr, Options{Slices: N, Start: sl.Start, End: sl.End})
			if err != nil {
				t.Fatal(err)
			}
			cellsBitIdentical(t, "BuildStream", m.StateRow(0), wantRow, a, b)
		}

		// fillRange shape: slices lo..hi, cells already holding time.
		r, err := NewReslicer(tr)
		if err != nil {
			t.Fatal(err)
		}
		m := NewEmpty(r.h, sl, r.states)
		for i, v := range held {
			m.AddD(0, 0, i, v)
		}
		if err := r.fillRange(m, lo, hi); err != nil {
			t.Fatal(err)
		}
		cellsBitIdentical(t, "fillRange", m.StateRow(0), wantRange, a, b)
	})
}

// spreadRange spreads one event over slices lo..hi of row with the
// arguments Reslicer.fillRange passes spread.
func spreadRange(row []float64, sl timeslice.Slicer, lo, hi int, start, end float64) {
	edges := boundaries(sl, lo, hi)
	clipLo, clipHi := math.Max(edges[0], sl.Start), math.Min(edges[len(edges)-1], sl.End)
	spread(row[lo:], edges, sl.Width(), clipLo, clipHi, start, end)
}

func cellsBitIdentical(t *testing.T, label string, got, want []float64, a, b float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: event [%v,%v) slice %d: got %v, oracle %v", label, a, b, i, got[i], want[i])
		}
	}
}
