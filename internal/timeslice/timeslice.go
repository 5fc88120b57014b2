// Package timeslice implements the temporal dimension of the trace model
// (paper §III.A(2)): the continuous raw-trace time is divided into |T|
// regular time periods ("slices"); events are associated with the slices
// where they are active, proportionally to their overlap (the event→slice
// kernel that applies that rule lives with the model it fills, in package
// microscopic). Slicers come only from New, Shift and CoarsenGrid; the
// zero Slicer is not usable.
package timeslice

import "fmt"

// Slicer divides the window [Start, End) into N equal slices.
//
// Slicers built by New (and derived by Shift) are anchored to a grid: an
// origin plus an explicit slice width, so that Bounds(i) of a shifted
// slicer returns the exact same floats as the original's Bounds(i+k).
// This is what lets the incremental windowing path treat "the same slice
// seen through two windows" as bit-identical. Only New, Shift and
// CoarsenGrid make slicers; the zero value (and any Slicer assembled by
// hand) carries no grid and is not usable.
type Slicer struct {
	Start, End float64
	N          int

	// Grid anchoring: Bounds(i) = base + (off+i)·w.
	base float64
	off  int
	w    float64
}

// New returns a Slicer over [start, end) with n slices, anchored at start.
func New(start, end float64, n int) (Slicer, error) {
	if n <= 0 {
		return Slicer{}, fmt.Errorf("timeslice: need at least one slice, got %d", n)
	}
	if !(end > start) {
		return Slicer{}, fmt.Errorf("timeslice: empty window [%g,%g)", start, end)
	}
	return Slicer{Start: start, End: end, N: n, base: start, off: 0, w: (end - start) / float64(n)}, nil
}

// Shift returns the slicer panned by k slices on the same grid: slice i of
// the result covers exactly the interval of slice i+k of s — the boundary
// floats are identical, not merely close. The window may extend past the
// original trace extent; slices there simply hold no events.
func (s Slicer) Shift(k int) Slicer {
	off := s.off + k
	return Slicer{
		Start: s.base + float64(off)*s.w,
		End:   s.base + float64(off+s.N)*s.w,
		N:     s.N,
		base:  s.base,
		off:   off,
		w:     s.w,
	}
}

// OnGrid reports whether o shares s's grid (same origin and width), and if
// so the slice offset k such that o.Bounds(i) == s.Bounds(i+k) exactly.
func (s Slicer) OnGrid(o Slicer) (k int, ok bool) {
	if s.base != o.base || s.w != o.w {
		return 0, false
	}
	return o.off - s.off, true
}

// Grid exposes the slicer's grid anchoring (origin, slice width, offset of
// slice 0 on that grid). Two slicers with equal base and width address the
// same grid at possibly different offsets — the identity the multi-
// resolution ladder keys its levels by.
func (s Slicer) Grid() (base, width float64, off int) {
	return s.base, s.w, s.off
}

// CoarsenGrid returns the slicer covering the same window with n/factor
// slices of width·factor, anchored on the coarsened grid (same origin,
// every factor-th boundary). factor must be a power of two ≥ 2 (so
// width·factor is float-exact and the coarse boundaries are bit-exact
// members of the fine grid), N must be divisible by factor, and the grid
// offset must be divisible by factor; ladder levels anchored at a trace
// origin satisfy this by construction, arbitrary pans may not.
func (s Slicer) CoarsenGrid(factor int) (Slicer, error) {
	if factor < 2 || factor&(factor-1) != 0 {
		return Slicer{}, fmt.Errorf("timeslice: coarsen factor %d not a power of two ≥ 2", factor)
	}
	if s.N%factor != 0 {
		return Slicer{}, fmt.Errorf("timeslice: %d slices not divisible by factor %d", s.N, factor)
	}
	if s.off%factor != 0 {
		return Slicer{}, fmt.Errorf("timeslice: grid offset %d not aligned to factor %d", s.off, factor)
	}
	return Slicer{
		Start: s.Start,
		End:   s.End,
		N:     s.N / factor,
		base:  s.base,
		off:   s.off / factor,
		w:     s.w * float64(factor),
	}, nil
}

// Width returns the duration d(t) of one slice (slices are regular).
func (s Slicer) Width() float64 { return s.w }

// Bounds returns the half-open time interval covered by slice i. The index
// may lie outside [0, N): the grid extrapolates, which the zoom-out path
// uses to address slices beyond the current window.
func (s Slicer) Bounds(i int) (float64, float64) {
	return s.base + float64(s.off+i)*s.w, s.base + float64(s.off+i+1)*s.w
}

// IntervalBounds returns the time range covered by slices [i, j].
func (s Slicer) IntervalBounds(i, j int) (float64, float64) {
	lo, _ := s.Bounds(i)
	_, hi := s.Bounds(j)
	return lo, hi
}

// SliceOf returns the index of the slice containing time t, clamped to
// [0, N-1] for t at or beyond the window edges.
func (s Slicer) SliceOf(t float64) int {
	if t <= s.Start {
		return 0
	}
	if t >= s.End {
		return s.N - 1
	}
	i := int((t - s.Start) / s.Width())
	if i >= s.N { // guard against floating-point edge
		i = s.N - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Durations returns the slice-duration vector d(t) (all equal for a regular
// slicer, kept as a vector so downstream code works with any slicing).
func (s Slicer) Durations() []float64 {
	out := make([]float64, s.N)
	w := s.Width()
	for i := range out {
		out[i] = w
	}
	return out
}
