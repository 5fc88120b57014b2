package core

import "ocelotl/internal/measures"

// gainLossRow is the batched half of the input pass (fillRow): it
// evaluates Eqs. 1–3 on the n = len(den) cells of one triangle row
// segment. den holds each cell's normalizer |S_k|·Σd(t); sd, sr and sl
// hold, state-major with stride n, each state's running sums Σd, Σρ and
// Σρ·log₂ρ at each cell. gain[c] and loss[c] become the sums, from +0
// and in state order, of measures.GainLoss(sd[x·n+c], sr[x·n+c],
// sl[x·n+c], den[c]).
//
// gainLossRowGo is the portable body, which calls measures.GainLoss
// itself; gainLossRowAVX2 performs the same IEEE operations in the same
// order, math.Log2's included, so the choice of body never changes a bit
// of the result (FuzzGainLossRow, FuzzLog2x4).
func gainLossRow(den, sd, sr, sl, gain, loss []float64) {
	if kernel >= kernelAVX2 {
		gainLossRowAVX2(den, sd, sr, sl, gain, loss)
	} else {
		gainLossRowGo(den, sd, sr, sl, gain, loss)
	}
}

func gainLossRowGo(den, sd, sr, sl, gain, loss []float64) {
	n := len(den)
	gain, loss = gain[:n], loss[:n]
	for c, dn := range den {
		var g, l float64
		for b := c; b < len(sd); b += n {
			gx, lx := measures.GainLoss(sd[b], sr[b], sl[b], dn)
			g += gx
			l += lx
		}
		gain[c], loss[c] = g, l
	}
}
