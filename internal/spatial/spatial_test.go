package spatial

import (
	"math"
	"math/rand"
	"testing"

	"ocelotl/internal/exhaustive"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/measures"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/testutil"
	"ocelotl/internal/timeslice"
)

func randomModel(t *testing.T, seed int64, paths []string, T int) *microscopic.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, err := hierarchy.FromPaths(paths)
	if err != nil {
		t.Fatal(err)
	}
	sl, _ := timeslice.New(0, float64(T), T)
	m := microscopic.NewEmpty(h, sl, []string{"u", "v"})
	for s := 0; s < h.NumLeaves(); s++ {
		for ti := 0; ti < T; ti++ {
			a := rng.Float64()
			m.AddD(0, s, ti, a)
			m.AddD(1, s, ti, rng.Float64()*(1-a))
		}
	}
	return m
}

var paths = []string{"A/m0/a0", "A/m0/a1", "A/m1/a2", "B/m2/b0", "B/m2/b1"}

func TestOptimalAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := randomModel(t, seed, paths, 4)
		agg := New(m)
		for _, p := range []float64{0, 0.2, 0.5, 0.8, 1} {
			pt, err := agg.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := exhaustive.BestSpatial(m.H.Root, func(n *hierarchy.Node) float64 {
				g, l := agg.NodeGainLoss(n)
				return measures.PIC(p, g, l)
			})
			if math.Abs(pt.PIC-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("seed %d p=%v: DFS %.12f, brute force %.12f", seed, p, pt.PIC, want)
			}
		}
	}
}

func TestPartitionValidAndFullWindow(t *testing.T) {
	m := randomModel(t, 1, paths, 3)
	agg := New(m)
	pt, err := agg.Run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(m.H, m.NumSlices()); err != nil {
		t.Errorf("invalid partition: %v", err)
	}
	for _, a := range pt.Areas {
		if a.I != 0 || a.J != m.NumSlices()-1 {
			t.Errorf("spatial-only area %v does not span the window", a)
		}
	}
}

func TestHomogeneousResourcesAggregate(t *testing.T) {
	h, _ := hierarchy.FromPaths(paths)
	sl, _ := timeslice.New(0, 4, 4)
	m := microscopic.NewEmpty(h, sl, []string{"u"})
	for s := 0; s < h.NumLeaves(); s++ {
		for ti := 0; ti < 4; ti++ {
			m.AddD(0, s, ti, 0.4)
		}
	}
	pt, err := New(m).Run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Areas) != 1 || pt.Areas[0].Node != m.H.Root {
		t.Errorf("homogeneous resources produced %d areas", len(pt.Areas))
	}
}

func TestHeterogeneousClustersSeparate(t *testing.T) {
	// Cluster A busy, cluster B idle: at moderate p the two clusters
	// should not merge into the root.
	h, _ := hierarchy.FromPaths([]string{"A/a0", "A/a1", "B/b0", "B/b1"})
	sl, _ := timeslice.New(0, 4, 4)
	m := microscopic.NewEmpty(h, sl, []string{"u"})
	for s := 0; s < 2; s++ {
		for ti := 0; ti < 4; ti++ {
			m.AddD(0, s, ti, 0.9)
		}
	}
	for s := 2; s < 4; s++ {
		for ti := 0; ti < 4; ti++ {
			m.AddD(0, s, ti, 0.05)
		}
	}
	pt, err := New(m).Run(0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range pt.Areas {
		if a.Node == m.H.Root {
			t.Errorf("heterogeneous clusters merged at p=0.3: %v", pt.Areas)
		}
	}
	// But each homogeneous cluster should have merged internally.
	if len(pt.Areas) != 2 {
		t.Errorf("got %d areas, want the 2 clusters: %v", len(pt.Areas), pt.Areas)
	}
}

func TestNodesHelper(t *testing.T) {
	m := randomModel(t, 5, paths, 3)
	agg := New(m)
	nodes, err := agg.Nodes(0.5)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := agg.Run(0.5)
	if len(nodes) != len(pt.Areas) {
		t.Errorf("Nodes returned %d, partition has %d areas", len(nodes), len(pt.Areas))
	}
}

func TestRejectsBadP(t *testing.T) {
	m := randomModel(t, 9, paths, 2)
	agg := New(m)
	for _, p := range []float64{-1, 2, math.NaN()} {
		if _, err := agg.Run(p); err == nil {
			t.Errorf("Run(%v) accepted", p)
		}
	}
}

func TestNodeGainLossMatchesExhaustive(t *testing.T) {
	m := randomModel(t, 13, paths, 4)
	agg := New(m)
	T := m.NumSlices()
	for _, n := range m.H.Nodes {
		g1, l1 := agg.NodeGainLoss(n)
		// The time-integrated dataset is the same as evaluating the
		// (node, full-interval) area on a single-slice re-binned model;
		// rebuild it from resource profiles from first principles.
		var g2, l2 float64
		for x := 0; x < m.NumStates(); x++ {
			var sums measures.AreaSums
			sums.Size = n.Size()
			sums.Duration = float64(T) // d(t)=1 per slice
			for s := n.Lo; s < n.Hi; s++ {
				prof := m.ResourceProfile(s)
				sums.SumD += prof[x] * float64(T)
				sums.SumRho += prof[x]
				sums.SumRhoLogRho += measures.PLogP(prof[x])
			}
			g2 += sums.Gain()
			l2 += sums.Loss()
		}
		if math.Abs(g1-g2) > 1e-9 || math.Abs(l1-l2) > 1e-9 {
			t.Errorf("node %q: (g=%g,l=%g) vs first-principles (g=%g,l=%g)", n.Path, g1, l1, g2, l2)
		}
	}
}

// TestNodeGainLossBitIdentical checks every node's gain and loss bit for
// bit against the two-log reference (testutil.RefGainLoss) summed over
// the states in order, on random models and on one with an idle state.
func TestNodeGainLossBitIdentical(t *testing.T) {
	idle := randomModel(t, 5, paths, 3)
	clear(idle.StateRow(1))
	models := []*microscopic.Model{idle}
	for seed := int64(0); seed < 4; seed++ {
		models = append(models, randomModel(t, seed, paths, 1+int(seed)))
	}
	for mi, m := range models {
		a := New(m)
		for _, n := range m.H.Nodes {
			var wg, wl float64
			for x := 0; x < a.X; x++ {
				g, l := testutil.RefGainLoss(a.sumD[n.ID][x], a.sumRho[n.ID][x], a.sumRL[n.ID][x], n.Size(), a.dur)
				wg += g
				wl += l
			}
			g, l := a.NodeGainLoss(n)
			if math.Float64bits(g) != math.Float64bits(wg) || math.Float64bits(l) != math.Float64bits(wl) {
				t.Errorf("model %d node %q: (%v, %v), reference (%v, %v)", mi, n.Path, g, l, wg, wl)
			}
		}
	}
}
