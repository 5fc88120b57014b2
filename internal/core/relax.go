package core

// relaxRow is the row kernel of Algorithm 1: it finishes row i of one
// node's K-lane pIC and cut triangles (K = len(p), q = 1−p). The row's
// n = len(th) = (T−i)·K lanes are flattened as m = (j−i)·K + k; tri
// starts at the row and runs on through the finished rows below, th and
// c are the row's threshold and cut strips, g and l its gain and loss.
// Three phases run over the whole row, in iterateCellsLanes' order:
//  1. no cut: P = p·g − q·l, TH = improveThr(P), C = j;
//  2. spatial, with children: each child's row strip (kids[co·K:]) is
//     added in child order into a zero sum, kept where it beats TH;
//  3. temporal, cut = i..T−2: L = pic(i, cut) plus the row cut+1 below
//     is offered to every cell (i, j>cut).
//
// This is the portable body; relaxRowAVX2 (four lanes per step) and
// relaxRowAVX512 (eight) perform the same IEEE operations in the same
// order, so the choice of body never changes a bit of the result
// (FuzzRelaxRow).
func relaxRow(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int) {
	K, n := len(p), len(th)
	P, C := tri[:n], c[:n]
	for s, gs := range g[:n/K] {
		b := s * K
		ls, ps, ts, cs := l[s], P[b:b+K:b+K], th[b:b+K:b+K], C[b:b+K:b+K]
		for k := range ps {
			v := p[k]*gs - q[k]*ls
			ps[k], ts[k], cs[k] = v, improveThr(v), int32(i+s)
		}
	}
	if len(childOffs) > 0 {
		var sums [MaxLanes]float64
		sm := sums[:K:K]
		for b := 0; b < n; b += K {
			clear(sm)
			for _, co := range childOffs {
				cp := kids[co*K+b : co*K+b+K : co*K+b+K]
				for k := range sm {
					sm[k] += cp[k]
				}
			}
			ps, ts, cs := P[b:b+K:b+K], th[b:b+K:b+K], C[b:b+K:b+K]
			for k, v := range sm {
				if v > ts[k] {
					ps[k], ts[k], cs[k] = v, improveThr(v), CutSpatial
				}
			}
		}
	}
	// The right parts of cut are row cut+1, which starts where row cut
	// ends; P, TH and C shrink by one strip per cut.
	r := n
	for b := K; b < n; b += K {
		cut := int32(i + b/K - 1)
		L, ps := P[b-K:][:K], P[b:]
		R, ts, cs := tri[r:][:len(ps)], th[b:][:len(ps)], C[b:][:len(ps)]
		r += len(ps)
		if K == 1 { // one lane: no strips to slice
			lv := L[0]
			for m, rv := range R {
				if v := lv + rv; v > ts[m] {
					ps[m], ts[m], cs[m] = v, improveThr(v), cut
				}
			}
			continue
		}
		for s := 0; s+K <= len(ps); s += K {
			rs, pk, tk, ck := R[s:s+K:s+K], ps[s:s+K:s+K], ts[s:s+K:s+K], cs[s:s+K:s+K]
			for k, lv := range L {
				if v := lv + rs[k]; v > tk[k] {
					pk[k], tk[k], ck[k] = v, improveThr(v), cut
				}
			}
		}
	}
}

// kernelLevel names a set of bodies of the two row kernels, relaxRow
// and gainLossRow: the portable Go bodies, their AVX2 bodies, or
// relaxRowAVX512 with gainLossRow's AVX2 body (gainLossRow has no
// AVX-512 body). Every level computes the same bits.
type kernelLevel int

const (
	kernelGo kernelLevel = iota
	kernelAVX2
	kernelAVX512
)

// kernel is the kernel level iterateCellsLanes and gainLossRow run. It
// is set once, before any input pass or solve, to the widest level the
// CPU has (cpuKernel); tests lower it to run every body the CPU has.
var kernel = cpuKernel()
