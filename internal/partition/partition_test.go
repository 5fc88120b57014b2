package partition

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ocelotl/internal/hierarchy"
)

func h4(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	h, err := hierarchy.FromPaths([]string{"A/a0", "A/a1", "B/b0", "B/b1"})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAreaGeometry(t *testing.T) {
	h := h4(t)
	a := Area{Node: h.ByPath["A"], I: 2, J: 4}
	if a.Leaves() != 2 || a.Slices() != 3 || a.MicroAreas() != 6 {
		t.Errorf("geometry: leaves=%d slices=%d micro=%d", a.Leaves(), a.Slices(), a.MicroAreas())
	}
	if got := a.String(); got != "A[2..4]" {
		t.Errorf("String = %q", got)
	}
	root := Area{Node: h.Root, I: 0, J: 0}
	if got := root.String(); got != "<root>[0..0]" {
		t.Errorf("root String = %q", got)
	}
}

func TestValidateAccepts(t *testing.T) {
	h := h4(t)
	pt := &Partition{Areas: []Area{
		{Node: h.ByPath["A"], I: 0, J: 2},
		{Node: h.ByPath["B"], I: 0, J: 0},
		{Node: h.ByPath["B"], I: 1, J: 2},
	}}
	if err := pt.Validate(h, 3); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
}

func TestValidateMicroscopic(t *testing.T) {
	h := h4(t)
	var pt Partition
	for _, l := range h.Leaves {
		for ti := 0; ti < 2; ti++ {
			pt.Areas = append(pt.Areas, Area{Node: l, I: ti, J: ti})
		}
	}
	if err := pt.Validate(h, 2); err != nil {
		t.Errorf("microscopic partition rejected: %v", err)
	}
	if !pt.IsMicroscopic() {
		t.Error("IsMicroscopic = false")
	}
}

func TestValidateRejectsGap(t *testing.T) {
	h := h4(t)
	pt := &Partition{Areas: []Area{{Node: h.ByPath["A"], I: 0, J: 1}}}
	if err := pt.Validate(h, 2); err == nil {
		t.Error("partition with uncovered areas accepted")
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	h := h4(t)
	pt := &Partition{Areas: []Area{
		{Node: h.Root, I: 0, J: 1},
		{Node: h.ByPath["A"], I: 0, J: 0},
	}}
	if err := pt.Validate(h, 2); err == nil {
		t.Error("overlapping partition accepted")
	}
}

func TestValidateRejectsBadInterval(t *testing.T) {
	h := h4(t)
	for _, a := range []Area{
		{Node: h.Root, I: -1, J: 1},
		{Node: h.Root, I: 0, J: 5},
		{Node: h.Root, I: 2, J: 1},
	} {
		pt := &Partition{Areas: []Area{a}}
		if err := pt.Validate(h, 2); err == nil {
			t.Errorf("area %v accepted", a)
		}
	}
	if err := (&Partition{Areas: []Area{{Node: nil, I: 0, J: 0}}}).Validate(h, 1); err == nil {
		t.Error("nil node accepted")
	}
}

func TestValidateRejectsForeignNode(t *testing.T) {
	h := h4(t)
	other := h4(t)
	pt := &Partition{Areas: []Area{{Node: other.Root, I: 0, J: 0}}}
	if err := pt.Validate(h, 1); err == nil {
		t.Error("node from another hierarchy accepted")
	}
}

func TestSortAndSignature(t *testing.T) {
	h := h4(t)
	a := &Partition{Areas: []Area{
		{Node: h.ByPath["B"], I: 0, J: 1},
		{Node: h.ByPath["A"], I: 0, J: 1},
	}}
	b := &Partition{Areas: []Area{
		{Node: h.ByPath["A"], I: 0, J: 1},
		{Node: h.ByPath["B"], I: 0, J: 1},
	}}
	if a.Signature() != b.Signature() {
		t.Error("signature depends on area order")
	}
	c := &Partition{Areas: []Area{{Node: h.Root, I: 0, J: 1}}}
	if a.Signature() == c.Signature() {
		t.Error("different partitions share a signature")
	}
	a.Sort()
	if a.Areas[0].Node.Path != "A" {
		t.Errorf("sort order wrong: first area %v", a.Areas[0])
	}
}

func TestIsFullAggregation(t *testing.T) {
	h := h4(t)
	pt := &Partition{Areas: []Area{{Node: h.Root, I: 0, J: 4}}}
	if !pt.IsFullAggregation(h, 5) {
		t.Error("full aggregation not recognized")
	}
	if pt.IsFullAggregation(h, 6) {
		t.Error("wrong slice count accepted as full aggregation")
	}
	pt2 := &Partition{Areas: []Area{{Node: h.ByPath["A"], I: 0, J: 4}, {Node: h.ByPath["B"], I: 0, J: 4}}}
	if pt2.IsFullAggregation(h, 5) {
		t.Error("two-area partition accepted as full aggregation")
	}
}

func TestCountByKind(t *testing.T) {
	h := h4(t)
	pt := &Partition{Areas: []Area{
		{Node: h.Leaves[0], I: 0, J: 0},   // micro
		{Node: h.Leaves[1], I: 0, J: 3},   // temporal-only
		{Node: h.ByPath["B"], I: 0, J: 0}, // spatial-only
		{Node: h.ByPath["B"], I: 1, J: 3}, // both
		{Node: h.Leaves[0], I: 1, J: 3},   // temporal-only
		{Node: h.Leaves[1], I: 0, J: 0},   // micro (geometry only; overlap not checked here)
	}}
	micro, sp, te, both := pt.CountByKind()
	if micro != 2 || sp != 1 || te != 2 || both != 1 {
		t.Errorf("CountByKind = (%d,%d,%d,%d)", micro, sp, te, both)
	}
}

func TestTemporalCutsUnder(t *testing.T) {
	h := h4(t)
	pt := &Partition{Areas: []Area{
		{Node: h.Leaves[0], I: 0, J: 1},
		{Node: h.Leaves[0], I: 2, J: 3},
		{Node: h.Leaves[1], I: 0, J: 3},
		{Node: h.ByPath["B"], I: 0, J: 3},
	}}
	cuts := pt.TemporalCutsUnder(h.ByPath["A"], 4)
	if len(cuts[0]) != 1 || cuts[0][0] != 1 {
		t.Errorf("leaf 0 cuts = %v, want [1]", cuts[0])
	}
	if len(cuts[1]) != 0 {
		t.Errorf("leaf 1 cuts = %v, want none", cuts[1])
	}
	if _, ok := cuts[2]; ok {
		t.Error("cuts include resources outside the node")
	}
}

func TestNumAreas(t *testing.T) {
	h := h4(t)
	pt := &Partition{Areas: []Area{{Node: h.Root, I: 0, J: 0}}}
	if pt.NumAreas() != 1 {
		t.Errorf("NumAreas = %d", pt.NumAreas())
	}
}

// fmtSignature is the reference formulation Signature is pinned to: a
// sorted copy, one fmt.Fprintf per area.
func fmtSignature(pt *Partition) string {
	cp := &Partition{Areas: append([]Area(nil), pt.Areas...)}
	cp.Sort()
	var b strings.Builder
	for _, a := range cp.Areas {
		fmt.Fprintf(&b, "%d-%d:%d-%d;", a.Node.Lo, a.Node.Hi, a.I, a.J)
	}
	return b.String()
}

// TestSignatureMatchesFmt pins Signature byte for byte to the fmt
// formulation on random area lists, sorted and shuffled, and checks that
// signing never reorders the partition's own areas.
func TestSignatureMatchesFmt(t *testing.T) {
	h := h4(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		pt := &Partition{Areas: make([]Area, n)}
		for k := range pt.Areas {
			i := rng.Intn(1200)
			pt.Areas[k] = Area{Node: h.Nodes[rng.Intn(len(h.Nodes))], I: i, J: i + rng.Intn(1200)}
		}
		if trial%2 == 0 {
			pt.Sort()
		}
		before := append([]Area(nil), pt.Areas...)
		if got, want := pt.Signature(), fmtSignature(pt); got != want {
			t.Fatalf("trial %d: Signature() = %q, want %q", trial, got, want)
		}
		for k := range before {
			if pt.Areas[k] != before[k] {
				t.Fatalf("trial %d: Signature reordered area %d", trial, k)
			}
		}
	}
}
