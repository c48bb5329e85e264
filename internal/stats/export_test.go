package stats

// Histogram is a fixed-width bucket histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	Under   int // samples below Lo
	Over    int // samples at or above Hi
	Count   int
}

// NewHistogram creates a histogram with n equal-width buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.Count++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i == len(h.Buckets) { // guard FP edge
			i--
		}
		h.Buckets[i]++
	}
}

// FractionAtOrAbove returns the fraction of samples >= x.
func (h *Histogram) FractionAtOrAbove(x float64) float64 {
	if h.Count == 0 {
		return 0
	}
	n := h.Over
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, c := range h.Buckets {
		lo := h.Lo + float64(i)*width
		if lo >= x {
			n += c
		}
	}
	return float64(n) / float64(h.Count)
}
