//go:build !amd64

package core

import "math"

// cpuKernel: there are no vector row-kernel bodies off amd64.
func cpuKernel() kernelLevel { return kernelGo }

// relaxRowAVX2 and relaxRowAVX512 are never selected off amd64; they
// run the portable body so the kernel's dispatch compiles everywhere.
func relaxRowAVX2(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int) {
	relaxRow(p, q, g, l, tri, th, c, kids, childOffs, i)
}

func relaxRowAVX512(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int) {
	relaxRow(p, q, g, l, tri, th, c, kids, childOffs, i)
}

// gainLossRowAVX2 is never selected off amd64; it runs the portable body.
func gainLossRowAVX2(den, sd, sr, sl, gain, loss []float64) {
	gainLossRowGo(den, sd, sr, sl, gain, loss)
}

// log2x4AVX2 is math.Log2 on each lane off amd64.
func log2x4AVX2(x *[4]float64) {
	for k, v := range x {
		x[k] = math.Log2(v)
	}
}
