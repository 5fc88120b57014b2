package core

// relaxRow offers one temporal cut to a run of triangle cells. For every
// flattened lane index m it forms the candidate v = L[m mod K] + R[m]
// (K = len(L) ≥ 1) and, if v > TH[m], stores P[m] = v, TH[m] = improveThr(v)
// and C[m] = cut. The cut-major kernel calls it once per (row, cut), with
// L the finished strip pic(i,cut), R the row pic(cut+1, ·), and P, TH
// and C the running best, threshold and cut of the cells (i, j>cut). R,
// TH and C must be at least as long as P, and len(P) a multiple of K.
//
// This is the portable body. On amd64 the kernel runs relaxRowAVX2
// instead when relaxAVX2 is set; it performs the same IEEE adds, compares
// and threshold roundings, so the choice never changes a bit of the
// result (FuzzRelaxRow).
func relaxRow(L, R, P, TH []float64, C []int32, cut int32) {
	K := len(L)
	R, TH, C = R[:len(P)], TH[:len(P)], C[:len(P)]
	if K == 1 { // one lane: no strips to slice
		l := L[0]
		for m, r := range R {
			if v := l + r; v > TH[m] {
				P[m], TH[m], C[m] = v, improveThr(v), cut
			}
		}
		return
	}
	for b := 0; b+K <= len(P); b += K {
		r, p, th, c := R[b:b+K:b+K], P[b:b+K:b+K], TH[b:b+K:b+K], C[b:b+K:b+K]
		for k, l := range L {
			if v := l + r[k]; v > th[k] {
				p[k], th[k], c[k] = v, improveThr(v), cut
			}
		}
	}
}

// relaxAVX2 selects relaxRowAVX2 over relaxRow. It is set once, before
// any solve, from the CPU's features (avx2Supported); tests flip it to
// run both bodies.
var relaxAVX2 = avx2Supported()
