// Package stats provides the small statistical toolkit used throughout the
// Flex reproduction: percentiles, box-plot summaries (for Figures 9 and 10),
// mean/standard deviation (for Figure 12 whiskers), and histograms.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when xs has
// fewer than two elements.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice. xs
// is not reordered. The cost is linear in len(xs): only the one or two
// order statistics the result interpolates between are selected, and the
// result is bit for bit what sorting would give.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	buf := make([]float64, len(xs))
	copy(buf, xs)
	if !(p > 0 && p < 100) || len(buf) < selectMin || !selectable(buf) {
		sort.Float64s(buf)
		return percentileSorted(buf, p)
	}
	lo, hi, _ := ranks(len(buf), p)
	selectKth(buf, lo, 4*bits.Len(uint(len(buf))))
	if hi > lo {
		// Nothing right of lo is smaller than buf[lo], so the next order
		// statistic is the least of them.
		buf[hi] = slices.Min(buf[hi:])
	}
	return percentileSorted(buf, p)
}

// selectMin is the length below which Percentile sorts outright.
const selectMin = 32

// selectable reports whether every order statistic of xs is one value
// whichever way equal elements are arranged, so that selection and sorting
// must agree on it: no NaN (which nothing orders) and no −0 (equal to +0,
// yet not the same value).
func selectable(xs []float64) bool {
	for _, x := range xs {
		if x != x || (x == 0 && math.Signbit(x)) {
			return false
		}
	}
	return true
}

// selectKth rearranges a, which holds no NaN, so that a[k] is the value
// sorting would put there, nothing before it is greater and nothing after
// it is smaller: Hoare's selection with a median-of-three pivot. After
// rounds partitions that have not closed in on k — expected for no input
// but an adversarial one — it sorts what is left, which bounds the worst
// case at sorting's.
func selectKth(a []float64, k, rounds int) {
	lo, hi := 0, len(a)-1
	for ; hi > lo+1; rounds-- {
		if rounds == 0 {
			sort.Float64s(a[lo : hi+1])
			return
		}
		// Order a[lo] <= a[lo+1] <= a[hi] with the median of the ends and
		// the middle at lo+1: the pivot, and sentinels for both scans.
		mid := lo + (hi-lo)/2
		a[mid], a[lo+1] = a[lo+1], a[mid]
		if a[lo] > a[hi] {
			a[lo], a[hi] = a[hi], a[lo]
		}
		if a[lo+1] > a[hi] {
			a[lo+1], a[hi] = a[hi], a[lo+1]
		}
		if a[lo] > a[lo+1] {
			a[lo], a[lo+1] = a[lo+1], a[lo]
		}
		pivot := a[lo+1]
		i, j := lo+1, hi
		for {
			for i++; a[i] < pivot; i++ {
			}
			for j--; a[j] > pivot; j-- {
			}
			if j < i {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[lo+1], a[j] = a[j], pivot
		// a[lo..j-1] <= a[j] = pivot <= a[i..hi]; keep the side holding k.
		if j >= k {
			hi = j - 1
		}
		if j <= k {
			lo = i
		}
	}
	if hi == lo+1 && a[hi] < a[lo] {
		a[lo], a[hi] = a[hi], a[lo]
	}
}

// ranks returns the closest ranks lo <= hi that the p-th percentile
// (0 < p < 100) of n ordered values interpolates between, and the weight
// frac of hi.
func ranks(n int, p float64) (lo, hi int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// percentileSorted is Percentile of an already ordered slice. It reads
// only the first, the last, or the two closest ranks, so it is enough that
// those hold the values sorting would put there.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	lo, hi, frac := ranks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Box is a five-number summary used to render the box-and-whisker plots in
// the paper's Figures 9 and 10.
type Box struct {
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
}

// BoxOf computes the five-number summary of xs.
func BoxOf(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Box{
		Min:    sorted[0],
		P25:    percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the box in a compact, fixed-precision form.
func (b Box) String() string {
	return fmt.Sprintf("min=%.2f p25=%.2f med=%.2f p75=%.2f max=%.2f",
		b.Min, b.P25, b.Median, b.P75, b.Max)
}

// MeanStd is a mean ± standard-deviation pair (Figure 12 whiskers).
type MeanStd struct {
	Mean float64
	Std  float64
}

// MeanStdOf computes mean and population standard deviation of xs.
func MeanStdOf(xs []float64) MeanStd {
	return MeanStd{Mean: Mean(xs), Std: StdDev(xs)}
}

// String renders the pair as "mean±std" with two decimals.
func (m MeanStd) String() string {
	return fmt.Sprintf("%.2f±%.2f", m.Mean, m.Std)
}

// Nines converts an availability fraction (e.g. 0.9999) into its
// "number of nines" (e.g. 4.0). Returns +Inf for availability >= 1.
func Nines(availability float64) float64 {
	if availability >= 1 {
		return math.Inf(1)
	}
	if availability <= 0 {
		return 0
	}
	return -math.Log10(1 - availability)
}
