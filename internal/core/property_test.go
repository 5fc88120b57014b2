package core

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"ocelotl/internal/exhaustive"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
)

// randomHierarchyPaths generates a random 1–3-level platform with at most
// maxLeaves resources.
func randomHierarchyPaths(rng *rand.Rand, maxLeaves int) []string {
	var paths []string
	clusters := 1 + rng.Intn(3)
	for c := 0; c < clusters && len(paths) < maxLeaves; c++ {
		machines := 1 + rng.Intn(2)
		for m := 0; m < machines && len(paths) < maxLeaves; m++ {
			cores := 1 + rng.Intn(2)
			for k := 0; k < cores && len(paths) < maxLeaves; k++ {
				paths = append(paths, "c"+strconv.Itoa(c)+"/m"+strconv.Itoa(m)+"/p"+strconv.Itoa(k))
			}
		}
	}
	return paths
}

func randomSmallModel(rng *rand.Rand) *microscopic.Model {
	paths := randomHierarchyPaths(rng, 4)
	h, err := hierarchy.FromPaths(paths)
	if err != nil {
		panic(err)
	}
	T := 2 + rng.Intn(2) // 2–3 slices keeps brute force tractable
	sl, _ := timeslice.New(0, float64(T), T)
	X := 1 + rng.Intn(2)
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

// maxRawPartitions caps the raw expansion EnumerateSpatiotemporal builds
// for a drawn shape. The draws of randomSmallModel expand to at most
// 467,504 partitions or to at least 2.9e6 (about 5% of seeds), up to
// 3.8e7, which alone takes several GB.
const maxRawPartitions = 500_000

// rawPartitions counts, building nothing, the partitions of (n, [a, b])
// that EnumerateSpatiotemporal's recursion expands before deduplication:
// the whole area, the spatial cut's cross product of the children, and
// every temporal cut's left × right.
func rawPartitions(n *hierarchy.Node, a, b int) int {
	c := 1
	if !n.IsLeaf() {
		prod := 1
		for _, ch := range n.Children {
			prod *= rawPartitions(ch, a, b)
		}
		c += prod
	}
	for cut := a; cut < b; cut++ {
		c += rawPartitions(n, a, cut) * rawPartitions(n, cut+1, b)
	}
	return c
}

// TestPropertyOptimalOnRandomShapes: for random hierarchy shapes, slice
// counts, state counts, data and p, the algorithm's pIC equals the
// brute-force optimum. A shape whose enumeration would exceed
// maxRawPartitions is redrawn from the same rng, so the seed stays random
// and the oracle exhaustive while memory stays bounded.
func TestPropertyOptimalOnRandomShapes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomSmallModel(rng)
		for rawPartitions(m.H.Root, 0, m.NumSlices()-1) > maxRawPartitions {
			m = randomSmallModel(rng)
		}
		in := testInput(t, m, Options{})
		enumerated := exhaustive.EnumerateSpatiotemporal(m.H.Root, 0, m.NumSlices()-1, 0)
		p := rng.Float64()
		pt, err := in.NewSolver().RunContext(context.Background(), p)
		if err != nil {
			return false
		}
		if pt.Validate(m.H, m.NumSlices()) != nil {
			return false
		}
		want := bruteBest(m, enumerated, p)
		return math.Abs(pt.PIC-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertyReportedPICMatchesAreas: the partition's reported gain/loss
// always equal the sum of its areas' measures.
func TestPropertyReportedPICMatchesAreas(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomSmallModel(rng)
		in := testInput(t, m, Options{})
		p := rng.Float64()
		pt, err := in.NewSolver().RunContext(context.Background(), p)
		if err != nil {
			return false
		}
		var gain, loss float64
		for _, ar := range pt.Areas {
			g, l := in.EvaluateArea(ar)
			gain += g
			loss += l
		}
		return math.Abs(gain-pt.Gain) < 1e-9*(1+math.Abs(gain)) &&
			math.Abs(loss-pt.Loss) < 1e-9*(1+math.Abs(loss))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMicroscopicBeatsNothingAtPZero: at p=0 the optimum's pIC is
// exactly 0 (the microscopic partition's value), never negative.
func TestPropertyMicroscopicBeatsNothingAtPZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomSmallModel(rng)
		pt, err := testInput(t, m, Options{}).NewSolver().RunContext(context.Background(), 0)
		if err != nil {
			return false
		}
		return pt.PIC >= -1e-9 && pt.PIC <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyScaleInvariance: multiplying every duration by a constant
// (same trace at a different time unit) must not change the chosen
// partition — d(t) scales identically, so every ρ is unchanged.
func TestPropertyScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		paths := randomHierarchyPaths(rng, 5)
		h, err := hierarchy.FromPaths(paths)
		if err != nil {
			return false
		}
		T := 3
		k := 1 + rng.Float64()*999 // time-unit factor
		sl1, _ := timeslice.New(0, float64(T), T)
		sl2, _ := timeslice.New(0, k*float64(T), T)
		m1 := microscopic.NewEmpty(h, sl1, []string{"a", "b"})
		m2 := microscopic.NewEmpty(h, sl2, []string{"a", "b"})
		for s := 0; s < h.NumLeaves(); s++ {
			for ti := 0; ti < T; ti++ {
				u, v := rng.Float64()*0.6, rng.Float64()*0.4
				m1.AddD(0, s, ti, u)
				m1.AddD(1, s, ti, v)
				m2.AddD(0, s, ti, k*u)
				m2.AddD(1, s, ti, k*v)
			}
		}
		p := rng.Float64()
		p1, err := testInput(t, m1, Options{}).NewSolver().RunContext(context.Background(), p)
		if err != nil {
			return false
		}
		p2, err := testInput(t, m2, Options{}).NewSolver().RunContext(context.Background(), p)
		if err != nil {
			return false
		}
		return p1.Signature() == p2.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPermutationInvariance: permuting the state labels must not
// change the partition geometry (the criterion is a sum over states).
func TestPropertyPermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		paths := randomHierarchyPaths(rng, 4)
		h1, err := hierarchy.FromPaths(paths)
		if err != nil {
			return false
		}
		h2, _ := hierarchy.FromPaths(paths)
		T := 3
		sl, _ := timeslice.New(0, float64(T), T)
		m1 := microscopic.NewEmpty(h1, sl, []string{"a", "b"})
		m2 := microscopic.NewEmpty(h2, sl, []string{"b", "a"})
		for s := 0; s < h1.NumLeaves(); s++ {
			for ti := 0; ti < T; ti++ {
				u, v := rng.Float64()*0.5, rng.Float64()*0.5
				m1.AddD(0, s, ti, u)
				m1.AddD(1, s, ti, v)
				m2.AddD(0, s, ti, v) // swapped
				m2.AddD(1, s, ti, u)
			}
		}
		p := rng.Float64()
		p1, err := testInput(t, m1, Options{}).NewSolver().RunContext(context.Background(), p)
		if err != nil {
			return false
		}
		p2, err := testInput(t, m2, Options{}).NewSolver().RunContext(context.Background(), p)
		if err != nil {
			return false
		}
		return p1.Signature() == p2.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
