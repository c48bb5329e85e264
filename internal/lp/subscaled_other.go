//go:build !amd64

package lp

// subScaledKernel is subScaled's portable loop. Each group of four is
// addressed through fixed-length sub-slices, which costs at most one range
// check per group instead of two per element.
func subScaledKernel(dst, src []float64, f float64) {
	n := len(src)
	dst = dst[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		s := src[j : j+4 : j+4]
		d := dst[j : j+4 : j+4]
		d[0] -= f * s[0]
		d[1] -= f * s[1]
		d[2] -= f * s[2]
		d[3] -= f * s[3]
	}
	tail := dst[j:]
	for k, v := range src[j:] {
		tail[k] -= f * v
	}
}
