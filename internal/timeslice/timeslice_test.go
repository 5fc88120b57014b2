package timeslice

import (
	"math"
	"testing"
)

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(0, 10, 0); err == nil {
		t.Error("zero slices accepted")
	}
	if _, err := New(0, 10, -3); err == nil {
		t.Error("negative slices accepted")
	}
	if _, err := New(5, 5, 10); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := New(7, 3, 10); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestBoundsTileWindow(t *testing.T) {
	s, _ := New(2, 12, 5)
	prevEnd := 2.0
	for i := 0; i < s.N; i++ {
		lo, hi := s.Bounds(i)
		if math.Abs(lo-prevEnd) > 1e-12 {
			t.Errorf("slice %d starts at %g, want %g", i, lo, prevEnd)
		}
		if math.Abs(hi-lo-s.Width()) > 1e-12 {
			t.Errorf("slice %d width %g, want %g", i, hi-lo, s.Width())
		}
		prevEnd = hi
	}
	if math.Abs(prevEnd-12) > 1e-12 {
		t.Errorf("last slice ends at %g, want 12", prevEnd)
	}
}

func TestSliceOf(t *testing.T) {
	s, _ := New(0, 10, 10)
	cases := []struct {
		t    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.5, 0}, {1, 1}, {9.99, 9}, {10, 9}, {42, 9},
	}
	for _, c := range cases {
		if got := s.SliceOf(c.t); got != c.want {
			t.Errorf("SliceOf(%g) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestIntervalBounds(t *testing.T) {
	s, _ := New(0, 30, 30)
	lo, hi := s.IntervalBounds(3, 5)
	if lo != 3 || hi != 6 {
		t.Errorf("IntervalBounds(3,5) = (%g,%g), want (3,6)", lo, hi)
	}
}

func TestDurations(t *testing.T) {
	s, _ := New(0, 30, 30)
	d := s.Durations()
	if len(d) != 30 {
		t.Fatalf("len = %d", len(d))
	}
	for i, v := range d {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("d(%d) = %g, want 1", i, v)
		}
	}
}

func TestShiftBoundsAreBitIdentical(t *testing.T) {
	// The whole incremental-windowing design rests on this: slice i of a
	// shifted slicer covers the exact same floats as slice i+k of the
	// original, for any k, including chains of shifts that cancel out.
	s, _ := New(0.1, 7.3, 13)
	for _, k := range []int{1, -1, 5, -5, 13, 40} {
		sh := s.Shift(k)
		for i := -3; i < s.N+3; i++ {
			lo1, hi1 := sh.Bounds(i)
			lo2, hi2 := s.Bounds(i + k)
			if lo1 != lo2 || hi1 != hi2 {
				t.Fatalf("Shift(%d).Bounds(%d) = [%v,%v), want [%v,%v)", k, i, lo1, hi1, lo2, hi2)
			}
		}
		if sh.Width() != s.Width() {
			t.Fatalf("Shift(%d) changed the width", k)
		}
		if off, ok := s.OnGrid(sh); !ok || off != k {
			t.Fatalf("OnGrid(Shift(%d)) = (%d, %v), want (%d, true)", k, off, ok, k)
		}
	}
	// A round trip returns to the identical slicer.
	rt := s.Shift(7).Shift(-3).Shift(-4)
	if rt != s {
		t.Fatalf("shift round trip: %+v != %+v", rt, s)
	}
}

func TestOnGridRejectsForeignSlicers(t *testing.T) {
	a, _ := New(0, 10, 10)
	b, _ := New(0, 10, 20) // different width
	c, _ := New(1, 11, 10) // different origin
	if _, ok := a.OnGrid(b); ok {
		t.Error("different width accepted")
	}
	if _, ok := a.OnGrid(c); ok {
		t.Error("different origin accepted")
	}
	if k, ok := a.OnGrid(a); !ok || k != 0 {
		t.Errorf("self: (%d, %v), want (0, true)", k, ok)
	}
}
