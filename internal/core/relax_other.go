//go:build !amd64

package core

// avx2Supported: there is no vector relaxRow body off amd64.
func avx2Supported() bool { return false }

// relaxRowAVX2 is never selected off amd64; it runs the portable body so
// the kernel's dispatch compiles everywhere.
func relaxRowAVX2(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int) {
	relaxRow(p, q, g, l, tri, th, c, kids, childOffs, i)
}
