package core

// relaxRowAVX2 is relaxRow's AVX2 body (relax_amd64.s): one call per
// row, four lanes per step. It trusts its caller for relaxRow's shapes
// and 1 ≤ len(p) ≤ MaxLanes, and must not let its slices escape: the
// kernel's q lanes live on its stack.
//
//go:noescape
func relaxRowAVX2(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int)

// relaxRowAVX512 is relaxRow's AVX-512 body (relax_amd64.s): one call
// per row, eight lanes per step and opmasks for partial strips and
// tails. Its contract is relaxRowAVX2's.
//
//go:noescape
func relaxRowAVX512(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int)

// cpuKernel reports the widest row-kernel body the CPU runs and the OS
// saves the registers of (CPUID leaves 1 and 7, XGETBV): kernelAVX512
// needs AVX-512 F, DQ and VL, kernelAVX2 needs AVX2.
func cpuKernel() kernelLevel
