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
// is not reordered: Percentile is PercentileInPlace on a copy.
func Percentile(xs []float64, p float64) float64 {
	return PercentileInPlace(slices.Clone(xs), p)
}

// PercentileInPlace is Percentile without the copy: it may reorder xs. The
// cost is linear in len(xs): only the one or two order statistics the
// result interpolates between are selected, and the result is bit for bit
// what sorting would give.
func PercentileInPlace(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !(p > 0 && p < 100) || len(xs) < selectMin || !selectable(xs) {
		sort.Float64s(xs)
		return percentileSorted(xs, p)
	}
	lo, hi, _ := ranks(len(xs), p)
	selectKth(xs, lo, 4*bits.Len(uint(len(xs))))
	if hi > lo {
		// Nothing right of lo is smaller than xs[lo], so the next order
		// statistic is the least of them.
		xs[hi] = slices.Min(xs[hi:])
	}
	return percentileSorted(xs, p)
}

// Tail is the p-th percentile of a stream of at most n values, kept from
// only the stream's largest values: at least the n − lo(n) largest, where
// lo(n) is the lower of the two ranks the percentile of n values
// interpolates between. Whatever count m ≤ n the stream reaches, both ranks
// its percentile reads are among them, since m − lo(m) never shrinks as m
// grows; so Percentile is bit for bit PercentileInPlace of the same values
// whenever none is NaN or −0, the values order does not settle.
//
// The values sit in a buffer of twice n − lo(n). When it fills, selection
// keeps its n − lo(n) largest, and from then on a value less than the least
// of those is dropped on arrival: most values of a long stream cost one
// comparison.
type Tail struct {
	n, count, keep int
	p              float64
	buf            []float64 // the stream's largest values, 2·keep at most
	floor          float64   // the least value the last compaction kept; −Inf before one
}

// NewTail returns an empty Tail for a stream of at most n values and the
// p-th percentile, 0 <= p <= 100.
func NewTail(n int, p float64) *Tail {
	keep := 0
	if n > 0 {
		lo, _, _ := ranks(n, p)
		keep = n - lo
	}
	return &Tail{n: n, keep: keep, p: p, buf: make([]float64, 0, 2*keep), floor: math.Inf(-1)}
}

// Add puts x in the stream. It panics when the stream already holds the n
// values the Tail was made for: past them the kept values no longer hold
// the ranks Percentile reads.
func (t *Tail) Add(x float64) {
	if t.count == t.n {
		panic(fmt.Sprintf("stats: Tail made for %d values given one more", t.n))
	}
	t.count++
	if x < t.floor {
		return
	}
	t.buf = append(t.buf, x)
	if len(t.buf) == cap(t.buf) {
		// Keep the keep largest: everything dropped is no greater than
		// what stays, so the buffer still holds the stream's largest.
		drop := len(t.buf) - t.keep
		selectKth(t.buf, drop, 4*bits.Len(uint(len(t.buf))))
		t.buf = t.buf[:copy(t.buf, t.buf[drop:])]
		t.floor = t.buf[0]
	}
}

// Percentile returns the p-th percentile of the values added since the
// Tail was made or last read (0 for none) and empties it.
func (t *Tail) Percentile() float64 {
	if t.count == 0 {
		return 0
	}
	lo, hi, frac := ranks(t.count, t.p)
	// The buffer holds ranks count−len(buf) … count−1.
	b := t.buf
	k := lo - (t.count - len(b))
	selectKth(b, k, 4*bits.Len(uint(len(b))))
	v := b[k]
	if hi > lo {
		v = v*(1-frac) + slices.Min(b[k+1:])*frac
	}
	t.count, t.buf, t.floor = 0, t.buf[:0], math.Inf(-1)
	return v
}

// selectMin is the length below which PercentileInPlace sorts outright.
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
// (0 <= p <= 100) of n ordered values interpolates between, and the weight
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
