package core

// relaxRowAVX2 is relaxRow's AVX2 body (relax_amd64.s): four lanes per
// step, the strip L repeated across the row without a per-strip loop,
// and a masked last step. It trusts its caller for 1 ≤ len(L) ≤ MaxLanes
// and len(R), len(TH), len(C) ≥ len(P). It must not let its slices
// escape: the kernel's threshold strip lives on the stack.
//
//go:noescape
func relaxRowAVX2(L, R, P, TH []float64, C []int32, cut int32)

// avx2Supported reports whether the CPU supports AVX2 and the OS saves
// the YMM registers (CPUID leaves 1 and 7, XGETBV).
func avx2Supported() bool
