// Package measures implements the information-theoretic quantities of the
// paper (§III.C): the Kullback-Leibler information loss (Eq. 2), the
// Shannon-entropy data-reduction gain (Eq. 3), the parametrized Information
// Criterion pIC (Eq. 4), and the aggregated state proportions (Eq. 1).
//
// All logarithms are base 2; the usual convention 0·log₂0 = 0 applies.
// The functions here operate on precomputed sums so that every aggregation
// algorithm (spatial, temporal, spatiotemporal, product) shares a single
// implementation of the equations.
package measures

import "math"

// PLogP returns p·log₂(p) with the convention 0·log₂0 = 0. It is the
// elementary term of both the gain and the loss.
func PLogP(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return p * math.Log2(p)
}

// AreaSums collects, for one state x over one spatiotemporal area
// (S_k, T_(i,j)), the sums needed by Eqs. 1–3 (paper §III.E "Data Input"):
//
//	SumD       = Σ_(s,t) d_x(s,t)        — time spent in x
//	SumRho     = Σ_(s,t) ρ_x(s,t)        — sum of microscopic proportions
//	SumRhoLogRho = Σ_(s,t) ρ_x·log₂ρ_x   — "Shannon information" of those
//
// together with the area's geometry: Size = |S_k| and Duration =
// Σ_(t∈T(i,j)) d(t).
type AreaSums struct {
	SumD         float64
	SumRho       float64
	SumRhoLogRho float64
	Size         int
	Duration     float64
}

// AggRho returns the aggregated proportion ρ_x(S_k, T_(i,j)) of Eq. 1:
// the per-resource time-weighted ratios averaged over the resources. With
// regular slices this equals the plain mean of the microscopic ρ values.
func (a AreaSums) AggRho() float64 {
	if den := a.den(); den > 0 {
		return a.SumD / den
	}
	return 0
}

// den returns the Eq. 1 normalizer |S_k|·Σd(t), or 0 for an empty area.
func (a AreaSums) den() float64 {
	if a.Size == 0 || a.Duration <= 0 {
		return 0
	}
	return float64(a.Size) * a.Duration
}

// GainLoss evaluates Eqs. 1–3 for one state over one area from its sums
// (see AreaSums) and the normalizer den = |S_k|·Σd(t), which is 0 for an
// empty area. It is the one declaration of the formula: the aggregated
// proportion agg = sumD/den costs one division and its logarithm is taken
// once, for
//
//	gain = agg·log₂agg − Σρ·log₂ρ                 (Eq. 3)
//	loss = Σρ·log₂ρ − Σρ·log₂agg                  (Eq. 2)
//
// With agg ≤ 0 every microscopic value is 0 too: the gain is 0 − sumRL and
// the loss 0, matching 0·log₂0 = 0 down to the sign of a zero. The input
// pass calls it for every (cell, state); it takes scalars so the call
// passes everything in registers.
func GainLoss(sumD, sumRho, sumRL, den float64) (gain, loss float64) {
	var agg float64
	if den > 0 {
		agg = sumD / den
	}
	if agg <= 0 {
		return 0 - sumRL, 0
	}
	l := math.Log2(agg)
	return agg*l - sumRL, sumRL - sumRho*l
}

// Loss returns the Kullback-Leibler information loss of Eq. 2 for this
// state and area:
//
//	loss_x = Σ_(s,t) ρ_x(s,t) · log₂( ρ_x(s,t) / ρ_x(S_k,T_(i,j)) )
//
// Terms with ρ_x(s,t) = 0 vanish; if the aggregated proportion is 0 every
// microscopic value is 0 too and the loss is 0.
func (a AreaSums) Loss() float64 {
	_, loss := GainLoss(a.SumD, a.SumRho, a.SumRhoLogRho, a.den())
	return loss
}

// Gain returns the Shannon-entropy data reduction of Eq. 3:
//
//	gain_x = ρ_x(S_k,T_(i,j))·log₂ρ_x(S_k,T_(i,j)) − Σ_(s,t) ρ_x·log₂ρ_x
func (a AreaSums) Gain() float64 {
	gain, _ := GainLoss(a.SumD, a.SumRho, a.SumRhoLogRho, a.den())
	return gain
}

// PIC returns the parametrized Information Criterion of Eq. 4 for the given
// gain/loss trade-off ratio p ∈ [0,1]:
//
//	pIC_x = p·gain_x − (1−p)·loss_x
func (a AreaSums) PIC(p float64) float64 {
	gain, loss := GainLoss(a.SumD, a.SumRho, a.SumRhoLogRho, a.den())
	return PIC(p, gain, loss)
}

// PIC combines a gain and a loss with ratio p (Eq. 4). The criterion is
// additive over the parts of a partition and over the states.
func PIC(p, gain, loss float64) float64 { return p*gain - (1-p)*loss }

// ImproveEps is the relative tolerance used by every aggregation algorithm
// when comparing partition alternatives. The paper's Algorithm 1 requires a
// *strict* improvement to cut (ties favor aggregation); in floating point,
// sums over many microscopic areas carry rounding noise of order
// 1e-16·scale which would otherwise break ties arbitrarily (e.g. splitting
// perfectly homogeneous data at p = 0). Genuine criterion improvements are
// far above this threshold.
const ImproveEps = 1e-12

// Improves reports whether candidate strictly beats best beyond rounding
// noise. An infinite best (the DP initialization) is beaten by anything
// finite. The threshold rounds the product before the add (the explicit
// float64 conversion forbids fusing it into one FMA), so it is the same
// float on every architecture and matches the vector kernel's.
func Improves(candidate, best float64) bool {
	if math.IsInf(best, -1) {
		return !math.IsInf(candidate, -1)
	}
	return candidate > best+float64(ImproveEps*(1+math.Abs(best)))
}

// Entropy returns the Shannon entropy −Σ p_i log₂ p_i of a distribution.
// Used by analyses and tests; not part of the optimization hot path.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		h -= PLogP(v)
	}
	return h
}

// KLDivergence returns Σ p_i log₂(p_i/q_i) for distributions p, q (0 where
// p_i = 0; +Inf if some p_i > 0 has q_i = 0). Used by tests to cross-check
// the loss computation from first principles.
func KLDivergence(p, q []float64) float64 {
	d := 0.0
	for i, pi := range p {
		if pi <= 0 {
			continue
		}
		if q[i] <= 0 {
			return math.Inf(1)
		}
		d += pi * math.Log2(pi/q[i])
	}
	return d
}

// Mode returns the index of the largest value (the state mode of §IV) and
// its share α = max/Σ; index -1 and α = 0 for an all-zero vector. Ties go
// to the lowest index, which keeps renderings deterministic.
func Mode(values []float64) (idx int, alpha float64) {
	idx = -1
	var max, sum float64
	for i, v := range values {
		sum += v
		if idx == -1 || v > max {
			idx, max = i, v
		}
	}
	if sum <= 0 || max <= 0 {
		return -1, 0
	}
	return idx, max / sum
}
