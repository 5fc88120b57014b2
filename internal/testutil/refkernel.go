package testutil

import "math"

// RefGainLoss is the reference the input-pass kernels are checked against
// bit for bit: a verbatim, self-contained copy of the two-log formulation
// of Eqs. 1–3 the kernels replaced. The aggregated proportion is computed
// separately for the gain and for the loss, each with its own division
// and logarithm:
//
//	agg  = sumD / (size·dur)        (0 when size = 0 or dur ≤ 0)
//	gain = PLogP(agg) − sumRL       (PLogP(p) = p·log₂p, 0 for p ≤ 0)
//	loss = sumRL − sumRho·log₂agg   (0 when agg ≤ 0)
func RefGainLoss(sumD, sumRho, sumRL float64, size int, dur float64) (gain, loss float64) {
	aggRho := func() float64 {
		if size == 0 || dur <= 0 {
			return 0
		}
		return sumD / (float64(size) * dur)
	}
	plogp := func(p float64) float64 {
		if p <= 0 {
			return 0
		}
		return p * math.Log2(p)
	}
	lossOf := func() float64 {
		agg := aggRho()
		if agg <= 0 {
			return 0
		}
		return sumRL - sumRho*math.Log2(agg)
	}
	return plogp(aggRho()) - sumRL, lossOf()
}
