// Package partition defines spatiotemporal partitions (paper §III.B): the
// structure-consistent decompositions of S×T into macroscopic areas, each
// the Cartesian product of a hierarchy node and a time interval.
package partition

import (
	"fmt"
	"sort"
	"strconv"

	"ocelotl/internal/hierarchy"
)

// Area is one macroscopic spatiotemporal area (S_k, T_(i,j)) ∈ A(S×T):
// hierarchy node Node over the slice interval [I, J] (inclusive).
type Area struct {
	Node *hierarchy.Node
	I, J int
}

// Leaves returns |S_k|, the number of resources under the area.
func (a Area) Leaves() int { return a.Node.Size() }

// Slices returns the interval length j−i+1.
func (a Area) Slices() int { return a.J - a.I + 1 }

// MicroAreas returns the number of microscopic areas covered.
func (a Area) MicroAreas() int { return a.Leaves() * a.Slices() }

// String renders the area as "path[i..j]".
func (a Area) String() string {
	p := a.Node.Path
	if p == "" {
		p = "<root>"
	}
	return fmt.Sprintf("%s[%d..%d]", p, a.I, a.J)
}

// Partition is a hierarchy-and-order-consistent partition P(S×T) together
// with the quality measures of the run that produced it.
type Partition struct {
	Areas []Area
	// P is the gain/loss trade-off ratio the partition was computed for.
	P float64
	// Gain, Loss and PIC are the partition totals (sums over areas and
	// states) under Eq. 2–4.
	Gain, Loss, PIC float64
}

// NumAreas returns the number of macroscopic aggregates.
func (pt *Partition) NumAreas() int { return len(pt.Areas) }

// Sort orders areas canonically: by leaf range start, then interval start,
// then by decreasing node size (ancestors first). Algorithms may emit areas
// in recursion order; sorting makes signatures and golden output stable.
func (pt *Partition) Sort() {
	sort.Slice(pt.Areas, func(a, b int) bool { return areaLess(pt.Areas[a], pt.Areas[b]) })
}

// areaLess is the canonical area order of Sort.
func areaLess(x, y Area) bool {
	if x.Node.Lo != y.Node.Lo {
		return x.Node.Lo < y.Node.Lo
	}
	if x.I != y.I {
		return x.I < y.I
	}
	if x.Node.Hi != y.Node.Hi {
		return x.Node.Hi > y.Node.Hi
	}
	return x.J < y.J
}

// Signature returns a canonical string identifying the partition's shape
// (used to detect partition changes while sweeping p): "lo-hi:i-j;" per
// area in canonical order. It never mutates pt — an unsorted partition is
// signed through a sorted copy — so shared read-only partitions may be
// signed concurrently.
func (pt *Partition) Signature() string {
	areas := pt.Areas
	for i := 1; i < len(areas); i++ {
		if areaLess(areas[i], areas[i-1]) {
			areas = append([]Area(nil), areas...)
			sort.Slice(areas, func(a, b int) bool { return areaLess(areas[a], areas[b]) })
			break
		}
	}
	buf := make([]byte, 0, 16*len(areas))
	for _, a := range areas {
		buf = strconv.AppendInt(buf, int64(a.Node.Lo), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(a.Node.Hi), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(a.I), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(a.J), 10)
		buf = append(buf, ';')
	}
	return string(buf)
}

// Validate checks that the areas form a partition of S×T for the given
// hierarchy and slice count: structure-consistent, pairwise disjoint, and
// covering every microscopic area exactly once.
func (pt *Partition) Validate(h *hierarchy.Hierarchy, slices int) error {
	n := h.NumLeaves()
	if slices <= 0 {
		return fmt.Errorf("partition: non-positive slice count %d", slices)
	}
	covered := make([]int, n*slices)
	for _, a := range pt.Areas {
		if a.Node == nil {
			return fmt.Errorf("partition: area with nil node")
		}
		if got := h.Nodes[a.Node.ID]; got != a.Node {
			return fmt.Errorf("partition: area %v references a node outside the hierarchy", a)
		}
		if a.I < 0 || a.J >= slices || a.I > a.J {
			return fmt.Errorf("partition: area %v has invalid interval (|T|=%d)", a, slices)
		}
		for s := a.Node.Lo; s < a.Node.Hi; s++ {
			for t := a.I; t <= a.J; t++ {
				covered[s*slices+t]++
			}
		}
	}
	for s := 0; s < n; s++ {
		for t := 0; t < slices; t++ {
			switch c := covered[s*slices+t]; {
			case c == 0:
				return fmt.Errorf("partition: microscopic area (s=%d,t=%d) uncovered", s, t)
			case c > 1:
				return fmt.Errorf("partition: microscopic area (s=%d,t=%d) covered %d times", s, t, c)
			}
		}
	}
	return nil
}

// IsMicroscopic reports whether every area is a single microscopic cell.
func (pt *Partition) IsMicroscopic() bool {
	for _, a := range pt.Areas {
		if a.MicroAreas() != 1 {
			return false
		}
	}
	return true
}

// IsFullAggregation reports whether the partition is the single root area.
func (pt *Partition) IsFullAggregation(h *hierarchy.Hierarchy, slices int) bool {
	return len(pt.Areas) == 1 && pt.Areas[0].Node == h.Root &&
		pt.Areas[0].I == 0 && pt.Areas[0].J == slices-1
}

// TemporalCutsUnder returns the sorted set of temporal cut positions
// (indices t such that some area under node ends at t with t < |T|-1)
// restricted to areas whose node is a descendant-or-self of node. Renderers
// use it to decide whether visually-aggregated children share the same
// temporal partitioning (the diagonal-vs-cross mark of §IV).
func (pt *Partition) TemporalCutsUnder(node *hierarchy.Node, slices int) map[int][]int {
	cuts := make(map[int][]int) // leaf index -> sorted end positions
	for _, a := range pt.Areas {
		if !node.Contains(a.Node) {
			continue
		}
		for s := a.Node.Lo; s < a.Node.Hi; s++ {
			if a.J < slices-1 {
				cuts[s] = append(cuts[s], a.J)
			}
		}
	}
	for s := range cuts {
		sort.Ints(cuts[s])
	}
	return cuts
}

// CountByKind returns how many areas are single microscopic cells, how many
// are spatial-only aggregates (one slice, many resources), temporal-only
// (one resource, many slices), and how many are genuinely two-dimensional.
func (pt *Partition) CountByKind() (micro, spatialOnly, temporalOnly, both int) {
	for _, a := range pt.Areas {
		rs, ts := a.Leaves() > 1, a.Slices() > 1
		switch {
		case !rs && !ts:
			micro++
		case rs && !ts:
			spatialOnly++
		case !rs && ts:
			temporalOnly++
		default:
			both++
		}
	}
	return
}
