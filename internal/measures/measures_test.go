package measures

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ocelotl/internal/testutil"
)

func TestPLogP(t *testing.T) {
	if got := PLogP(0); got != 0 {
		t.Errorf("PLogP(0) = %g, want 0", got)
	}
	if got := PLogP(-0.5); got != 0 {
		t.Errorf("PLogP(-0.5) = %g, want 0 (clamped)", got)
	}
	if got := PLogP(1); got != 0 {
		t.Errorf("PLogP(1) = %g, want 0", got)
	}
	if got := PLogP(0.5); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("PLogP(0.5) = %g, want -0.5", got)
	}
	if got := PLogP(2); math.Abs(got-2) > 1e-12 {
		t.Errorf("PLogP(2) = %g, want 2", got)
	}
}

// area builds AreaSums from explicit microscopic proportions with slice
// duration 1 and the given resource count (the values slice is
// [resource][slice] flattened, so Duration = len(values)/size).
func area(values []float64, size int) AreaSums {
	a := AreaSums{Size: size, Duration: float64(len(values) / size)}
	for _, v := range values {
		a.SumD += v // d(t)=1 so d_x = ρ_x
		a.SumRho += v
		a.SumRhoLogRho += PLogP(v)
	}
	return a
}

func TestAggRhoIsMeanOnRegularSlices(t *testing.T) {
	a := area([]float64{0.2, 0.4, 0.6, 0.8}, 2)
	if got, want := a.AggRho(), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("AggRho = %g, want %g", got, want)
	}
}

func TestAggRhoEmptyArea(t *testing.T) {
	var a AreaSums
	if got := a.AggRho(); got != 0 {
		t.Errorf("AggRho of empty area = %g, want 0", got)
	}
}

func TestHomogeneousAreaHasZeroLoss(t *testing.T) {
	a := area([]float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}, 3)
	if l := a.Loss(); math.Abs(l) > 1e-12 {
		t.Errorf("homogeneous loss = %g, want 0", l)
	}
	// And the gain equals -(n-1)·plogp(ρ) ≥ 0.
	want := -5 * PLogP(0.3)
	if g := a.Gain(); math.Abs(g-want) > 1e-12 {
		t.Errorf("homogeneous gain = %g, want %g", g, want)
	}
}

func TestAllZeroAreaIsFree(t *testing.T) {
	a := area([]float64{0, 0, 0, 0}, 2)
	if a.Loss() != 0 || a.Gain() != 0 {
		t.Errorf("all-zero area: gain=%g loss=%g, want 0, 0", a.Gain(), a.Loss())
	}
}

func TestSingletonAreaIsFree(t *testing.T) {
	a := area([]float64{0.42}, 1)
	if math.Abs(a.Loss()) > 1e-12 || math.Abs(a.Gain()) > 1e-12 {
		t.Errorf("singleton area: gain=%g loss=%g, want 0, 0", a.Gain(), a.Loss())
	}
}

// TestLossNonNegativeProperty: on regular slices the aggregated proportion
// is the mean of the microscopic ones, so the KL loss is ≥ 0 (log-sum
// inequality).
func TestLossNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		vals := make([]float64, n*m)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		return area(vals, n).Loss() >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLossMatchesKLProperty: the Eq. 2 loss equals Σρ·KL(ρ̂ ‖ uniform-agg)
// computed from first principles.
func TestLossMatchesFirstPrinciples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		vals := make([]float64, n*m)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		a := area(vals, n)
		agg := a.AggRho()
		var want float64
		for _, v := range vals {
			if v > 0 && agg > 0 {
				want += v * math.Log2(v/agg)
			}
		}
		return math.Abs(a.Loss()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPICEndpoints(t *testing.T) {
	a := area([]float64{0.1, 0.9, 0.5, 0.5}, 2)
	if got, want := a.PIC(0), -a.Loss(); math.Abs(got-want) > 1e-12 {
		t.Errorf("PIC(0) = %g, want -loss = %g", got, want)
	}
	if got, want := a.PIC(1), a.Gain(); math.Abs(got-want) > 1e-12 {
		t.Errorf("PIC(1) = %g, want gain = %g", got, want)
	}
	if got, want := PIC(0.3, 2, 1), 0.3*2-0.7*1; math.Abs(got-want) > 1e-12 {
		t.Errorf("PIC(0.3,2,1) = %g, want %g", got, want)
	}
}

func TestGainLossAccumulates(t *testing.T) {
	a := area([]float64{0.1, 0.9}, 1)
	b := area([]float64{0.5, 0.5}, 1)
	var g, l float64
	for _, s := range []AreaSums{a, b} {
		gs, ls := GainLoss(s.SumD, s.SumRho, s.SumRhoLogRho, float64(s.Size)*s.Duration)
		g += gs
		l += ls
	}
	if math.Abs(g-(a.Gain()+b.Gain())) > 1e-12 || math.Abs(l-(a.Loss()+b.Loss())) > 1e-12 {
		t.Errorf("GainLoss = (%g,%g)", g, l)
	}
}

// TestGainLossBitIdentical checks GainLoss and the AreaSums wrappers bit
// for bit against the two-log reference (testutil.RefGainLoss) on edge
// values: idle states (SumD = 0), zero durations, empty and size-1 areas,
// signed zeros, subnormals, and an aggregated proportion that underflows
// to 0.
func TestGainLossBitIdentical(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	vals := []float64{0, math.Copysign(0, -1), tiny, 3 * tiny, 0x1p-1030, 1e-300,
		0.125, 0.3, 0.5, 1, 1.7, 7, 1e300}
	signed := append([]float64{}, vals...)
	for _, v := range vals {
		if v != 0 {
			signed = append(signed, -v)
		}
	}
	sizes := []int{0, 1, 2, 3, 1000}
	durs := []float64{0, tiny, 1e-3, 0.5, 1, 3, 1e6}
	rng := rand.New(rand.NewSource(1))
	pick := func(vs []float64) float64 { return vs[rng.Intn(len(vs))] }
	check := func(a AreaSums) {
		t.Helper()
		bits := math.Float64bits
		den := 0.0
		if a.Size != 0 && a.Duration > 0 {
			den = float64(a.Size) * a.Duration
		}
		g, l := GainLoss(a.SumD, a.SumRho, a.SumRhoLogRho, den)
		wg, wl := testutil.RefGainLoss(a.SumD, a.SumRho, a.SumRhoLogRho, a.Size, a.Duration)
		if bits(g) != bits(wg) || bits(l) != bits(wl) {
			t.Fatalf("%+v: GainLoss = (%v, %v), reference (%v, %v)", a, g, l, wg, wl)
		}
		if bits(a.Gain()) != bits(wg) || bits(a.Loss()) != bits(wl) {
			t.Fatalf("%+v: wrappers = (%v, %v), reference (%v, %v)", a, a.Gain(), a.Loss(), wg, wl)
		}
		wantAgg := 0.0
		if den > 0 {
			wantAgg = a.SumD / den
		}
		if bits(a.AggRho()) != bits(wantAgg) {
			t.Fatalf("%+v: AggRho = %v, want %v", a, a.AggRho(), wantAgg)
		}
		for _, p := range []float64{0, 0.3, 1} {
			if want := p*wg - (1-p)*wl; bits(a.PIC(p)) != bits(want) {
				t.Fatalf("%+v: PIC(%v) = %v, reference %v", a, p, a.PIC(p), want)
			}
		}
	}
	for _, size := range sizes {
		for _, dur := range durs {
			for _, d := range vals {
				for _, rl := range signed {
					check(AreaSums{SumD: d, SumRho: pick(vals), SumRhoLogRho: rl, Size: size, Duration: dur})
				}
			}
		}
	}
	for n := 0; n < 20000; n++ {
		check(AreaSums{
			SumD:         pick(vals) * rng.Float64(),
			SumRho:       pick(vals) * rng.Float64(),
			SumRhoLogRho: pick(signed) * rng.Float64(),
			Size:         1 + rng.Intn(64),
			Duration:     pick(durs) * rng.Float64(),
		})
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{0.5, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("H(1/2,1/2) = %g, want 1", got)
	}
	if got := Entropy([]float64{1, 0}); math.Abs(got) > 1e-12 {
		t.Errorf("H(1,0) = %g, want 0", got)
	}
	u := []float64{0.25, 0.25, 0.25, 0.25}
	if got := Entropy(u); math.Abs(got-2) > 1e-12 {
		t.Errorf("H(uniform 4) = %g, want 2", got)
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	want := 0.5*math.Log2(2) + 0.5*math.Log2(0.5/0.75)
	if got := KLDivergence(p, q); math.Abs(got-want) > 1e-12 {
		t.Errorf("KL = %g, want %g", got, want)
	}
	if got := KLDivergence(p, p); math.Abs(got) > 1e-12 {
		t.Errorf("KL(p,p) = %g, want 0", got)
	}
	if got := KLDivergence([]float64{1, 0}, []float64{0, 1}); !math.IsInf(got, 1) {
		t.Errorf("KL with zero support = %g, want +Inf", got)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := range p {
			p[i], q[i] = rng.Float64()+1e-9, rng.Float64()+1e-9
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		return KLDivergence(p, q) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMode(t *testing.T) {
	idx, alpha := Mode([]float64{0.1, 0.6, 0.3})
	if idx != 1 || math.Abs(alpha-0.6) > 1e-12 {
		t.Errorf("Mode = (%d, %g), want (1, 0.6)", idx, alpha)
	}
	idx, alpha = Mode([]float64{0, 0, 0})
	if idx != -1 || alpha != 0 {
		t.Errorf("Mode of zeros = (%d, %g), want (-1, 0)", idx, alpha)
	}
	// Ties resolve to the lowest index.
	idx, _ = Mode([]float64{0.4, 0.4, 0.2})
	if idx != 0 {
		t.Errorf("tie mode = %d, want 0", idx)
	}
}

func TestModeAlphaRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		v := make([]float64, n)
		any := false
		for i := range v {
			v[i] = rng.Float64()
			if v[i] > 0 {
				any = true
			}
		}
		idx, alpha := Mode(v)
		if !any {
			return idx == -1 && alpha == 0
		}
		// α ∈ [1/|X|, 1] per §IV.
		return idx >= 0 && alpha >= 1/float64(n)-1e-12 && alpha <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestImproves(t *testing.T) {
	if Improves(1.0, 1.0) {
		t.Error("equal values should not improve")
	}
	if Improves(1.0+1e-15, 1.0) {
		t.Error("noise-level difference should not improve")
	}
	if !Improves(1.001, 1.0) {
		t.Error("real improvement rejected")
	}
	if !Improves(-5, math.Inf(-1)) {
		t.Error("anything finite should beat -Inf")
	}
	if Improves(math.Inf(-1), math.Inf(-1)) {
		t.Error("-Inf should not beat -Inf")
	}
}
