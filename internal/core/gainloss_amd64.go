package core

// gainLossRowAVX2 is gainLossRow's AVX2 body (gainloss_amd64.s): four
// cells per step, each state's measures.GainLoss evaluated on all four
// at once with a lane-wise transliteration of math.Log2. It trusts its
// caller for gainLossRow's shapes.
//
//go:noescape
func gainLossRowAVX2(den, sd, sr, sl, gain, loss []float64)

// log2x4AVX2 replaces each lane of x by its base-2 logarithm through the
// kernel's four-lane log2, which must equal math.Log2 bit for bit.
//
//go:noescape
func log2x4AVX2(x *[4]float64)
