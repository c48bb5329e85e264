package lp

// subScaledKernel is subScaled's SSE2 loop (subscaled_amd64.s). It reads
// len(src) elements of each slice: the caller guarantees len(dst) is at
// least that. It neither allocates nor calls anything.
//
//flex:hotpath
//go:noescape
func subScaledKernel(dst, src []float64, f float64)
