package temporal

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

func randomModel(t *testing.T, seed int64, nRes, T int) *microscopic.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, nRes)
	for i := range paths {
		paths[i] = "g/p" + string(rune('0'+i))
	}
	h, err := hierarchy.FromPaths(paths)
	if err != nil {
		t.Fatal(err)
	}
	sl, _ := timeslice.New(0, float64(T), T)
	m := microscopic.NewEmpty(h, sl, []string{"u", "v"})
	for s := 0; s < nRes; s++ {
		for ti := 0; ti < T; ti++ {
			a := rng.Float64()
			m.AddD(0, s, ti, a)
			m.AddD(1, s, ti, rng.Float64()*(1-a))
		}
	}
	return m
}

func TestDPAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := randomModel(t, seed, 3, 7)
		agg := New(m)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
			pt, err := agg.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := exhaustive.BestTemporal(m.NumSlices(), func(i, j int) float64 {
				g, l := agg.IntervalGainLoss(i, j)
				return measures.PIC(p, g, l)
			})
			if math.Abs(pt.PIC-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("seed %d p=%v: DP %.12f, brute force %.12f", seed, p, pt.PIC, want)
			}
		}
	}
}

func TestPartitionCoversTimeline(t *testing.T) {
	m := randomModel(t, 3, 4, 9)
	pt, err := New(m).Run(0.4)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, m.NumSlices())
	for _, a := range pt.Areas {
		if a.Node != m.H.Root {
			t.Errorf("temporal-only area %v is not rooted", a)
		}
		for ti := a.I; ti <= a.J; ti++ {
			if covered[ti] {
				t.Fatalf("slice %d covered twice", ti)
			}
			covered[ti] = true
		}
	}
	for ti, c := range covered {
		if !c {
			t.Errorf("slice %d uncovered", ti)
		}
	}
}

func TestHomogeneousTimelineAggregates(t *testing.T) {
	h, _ := hierarchy.FromPaths([]string{"g/a", "g/b"})
	sl, _ := timeslice.New(0, 6, 6)
	m := microscopic.NewEmpty(h, sl, []string{"u"})
	for s := 0; s < 2; s++ {
		for ti := 0; ti < 6; ti++ {
			m.AddD(0, s, ti, 0.5)
		}
	}
	pt, err := New(m).Run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Areas) != 1 {
		t.Errorf("homogeneous timeline split into %d intervals", len(pt.Areas))
	}
}

func TestPhaseChangeDetected(t *testing.T) {
	// Two clear phases (busy then idle): at low p the DP must cut at the
	// transition.
	h, _ := hierarchy.FromPaths([]string{"g/a", "g/b"})
	sl, _ := timeslice.New(0, 8, 8)
	m := microscopic.NewEmpty(h, sl, []string{"u"})
	for s := 0; s < 2; s++ {
		for ti := 0; ti < 4; ti++ {
			m.AddD(0, s, ti, 0.9)
		}
		for ti := 4; ti < 8; ti++ {
			m.AddD(0, s, ti, 0.1)
		}
	}
	intervals, err := New(m).Intervals(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(intervals) != 2 {
		t.Fatalf("got %d intervals %v, want 2", len(intervals), intervals)
	}
	if intervals[0] != [2]int{0, 3} || intervals[1] != [2]int{4, 7} {
		t.Errorf("intervals = %v, want [[0 3] [4 7]]", intervals)
	}
}

func TestIntervalGainLossSymmetryWithSingleSlice(t *testing.T) {
	m := randomModel(t, 11, 3, 5)
	agg := New(m)
	for ti := 0; ti < 5; ti++ {
		g, l := agg.IntervalGainLoss(ti, ti)
		if math.Abs(g) > 1e-12 || math.Abs(l) > 1e-12 {
			t.Errorf("singleton interval %d: gain=%g loss=%g, want 0,0", ti, g, l)
		}
	}
}

func TestLossNonNegative(t *testing.T) {
	m := randomModel(t, 17, 4, 6)
	agg := New(m)
	for i := 0; i < 6; i++ {
		for j := i; j < 6; j++ {
			if _, l := agg.IntervalGainLoss(i, j); l < -1e-9 {
				t.Errorf("interval [%d,%d] has negative loss %g", i, j, l)
			}
		}
	}
}

func TestRejectsBadP(t *testing.T) {
	m := randomModel(t, 19, 2, 3)
	agg := New(m)
	for _, p := range []float64{-0.5, 1.5, math.NaN()} {
		if _, err := agg.Run(p); err == nil {
			t.Errorf("Run(%v) accepted", p)
		}
	}
}

func TestBestPIC(t *testing.T) {
	m := randomModel(t, 23, 3, 5)
	agg := New(m)
	pt, _ := agg.Run(0.6)
	if got := agg.BestPIC(0.6); math.Abs(got-pt.PIC) > 1e-12 {
		t.Errorf("BestPIC = %g, Run PIC = %g", got, pt.PIC)
	}
}

// TestIntervalGainLossBitIdentical checks every interval's gain and loss
// bit for bit against the two-log reference (testutil.RefGainLoss) summed
// over the states in order, on random models and on one with an idle
// state.
func TestIntervalGainLossBitIdentical(t *testing.T) {
	idle := randomModel(t, 5, 3, 6)
	clear(idle.StateRow(1))
	models := []*microscopic.Model{idle}
	for seed := int64(0); seed < 4; seed++ {
		models = append(models, randomModel(t, seed, 1+int(seed), 3+2*int(seed)))
	}
	for mi, m := range models {
		a := New(m)
		for i := 0; i < a.T; i++ {
			for j := i; j < a.T; j++ {
				var wg, wl float64
				for x := 0; x < a.X; x++ {
					g, l := testutil.RefGainLoss(
						a.prefD[x][j+1]-a.prefD[x][i],
						a.prefRho[x][j+1]-a.prefRho[x][i],
						a.prefRL[x][j+1]-a.prefRL[x][i],
						m.NumResources(), a.durPref[j+1]-a.durPref[i])
					wg += g
					wl += l
				}
				g, l := a.IntervalGainLoss(i, j)
				if math.Float64bits(g) != math.Float64bits(wg) || math.Float64bits(l) != math.Float64bits(wl) {
					t.Errorf("model %d [%d,%d]: (%v, %v), reference (%v, %v)", mi, i, j, g, l, wg, wl)
				}
			}
		}
	}
}
