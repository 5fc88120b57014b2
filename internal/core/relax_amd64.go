package core

// relaxRowAVX2 is relaxRow's AVX2 body (relax_amd64.s): one call per
// row, four lanes per step. It trusts its caller for relaxRow's shapes
// and 1 ≤ len(p) ≤ MaxLanes, and must not let its slices escape: the
// kernel's q lanes live on its stack.
//
//go:noescape
func relaxRowAVX2(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int)

// avx2Supported reports whether the CPU supports AVX2 and the OS saves
// the YMM registers (CPUID leaves 1 and 7, XGETBV).
func avx2Supported() bool
