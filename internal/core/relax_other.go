//go:build !amd64

package core

// avx2Supported: there is no vector relaxRow body off amd64.
func avx2Supported() bool { return false }

// relaxRowAVX2 is never selected off amd64; it runs the portable body so
// the kernel's dispatch compiles everywhere.
func relaxRowAVX2(L, R, P, TH []float64, C []int32, cut int32) {
	relaxRow(L, R, P, TH, C, cut)
}
