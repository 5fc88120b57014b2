package core

import (
	"context"
	"testing"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
)

// testBuildAt and testShift unwrap the fallible index API for tests on
// RAM-backed reslicers, where fills cannot fail.
func testBuildAt(t *testing.T, r *microscopic.Reslicer, sl timeslice.Slicer) *microscopic.Model {
	t.Helper()
	m, err := r.BuildAt(sl)
	if err != nil {
		t.Fatalf("BuildAt: %v", err)
	}
	return m
}

func testShift(t *testing.T, r *microscopic.Reslicer, m *microscopic.Model, k int) (*microscopic.Model, microscopic.SliceOverlap) {
	t.Helper()
	nm, ov, err := r.Shift(m, k)
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	return nm, ov
}

// testInput runs the input pass with a background context; any error
// (only an armed failpoint can cause one) fails the test.
func testInput(tb testing.TB, m *microscopic.Model, opt Options) *Input {
	tb.Helper()
	in, err := NewInputContext(context.Background(), m, opt)
	if err != nil {
		tb.Fatalf("NewInputContext: %v", err)
	}
	return in
}

// testUpdate is UpdateContext with a background context, failing the test
// on error.
func testUpdate(tb testing.TB, in *Input, m *microscopic.Model, ov microscopic.SliceOverlap) *Input {
	tb.Helper()
	out, err := in.UpdateContext(context.Background(), m, ov)
	if err != nil {
		tb.Fatalf("UpdateContext: %v", err)
	}
	return out
}
