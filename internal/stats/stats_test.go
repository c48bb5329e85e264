package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almostEq(got, 2.5) {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Fatalf("StdDev single = %v, want 0", got)
	}
	// Population std of {2,4,4,4,5,5,7,9} is exactly 2.
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, 2) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || !almostEq(b.Median, 3) {
		t.Fatalf("BoxOf = %+v", b)
	}
	if b.P25 != 2 || b.P75 != 4 {
		t.Fatalf("quartiles = %+v", b)
	}
	if BoxOf(nil) != (Box{}) {
		t.Fatal("BoxOf(nil) should be zero Box")
	}
}

func TestBoxOrderingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs { // sanitize NaN/Inf from quick
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		b := BoxOf(xs)
		return b.Min <= b.P25 && b.P25 <= b.Median &&
			b.Median <= b.P75 && b.P75 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, p1, p2 float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNines(t *testing.T) {
	if got := Nines(0.9999); !almostEq(got, 4) {
		t.Fatalf("Nines(0.9999) = %v, want 4", got)
	}
	if got := Nines(0.999); !almostEq(got, 3) {
		t.Fatalf("Nines(0.999) = %v, want 3", got)
	}
	if !math.IsInf(Nines(1), 1) {
		t.Fatal("Nines(1) should be +Inf")
	}
	if Nines(0) != 0 || Nines(-1) != 0 {
		t.Fatal("Nines(<=0) should be 0")
	}
}

func TestMeanStdString(t *testing.T) {
	ms := MeanStdOf([]float64{1, 1, 1})
	if ms.Mean != 1 || ms.Std != 0 {
		t.Fatalf("MeanStdOf = %+v", ms)
	}
	if ms.String() != "1.00±0.00" {
		t.Fatalf("String = %q", ms.String())
	}
}

func TestBoxString(t *testing.T) {
	s := BoxOf([]float64{1, 2, 3}).String()
	if s == "" {
		t.Fatal("empty box string")
	}
}

// percentileBySorting is Percentile as it was before it selected: sort a
// copy, interpolate between the closest ranks. The reference Percentile must
// match bit for bit.
func percentileBySorting(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileOfSorted(sorted, p)
}

func percentileOfSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// percentileShapes are the inputs selection could get wrong where sorting
// cannot: duplicates that make every partition lopsided, orders that defeat
// a naive pivot, and the values order does not settle — infinities, NaNs,
// signed zeros.
var percentileShapes = []struct {
	name string
	at   func(i, n int, rng *rand.Rand) float64
}{
	{"random", func(i, n int, rng *rand.Rand) float64 { return rng.NormFloat64() }},
	{"five distinct values", func(i, n int, rng *rand.Rand) float64 { return float64(rng.Intn(5)) }},
	{"all equal", func(i, n int, rng *rand.Rand) float64 { return 1.25 }},
	{"sorted", func(i, n int, rng *rand.Rand) float64 { return float64(i) / 3 }},
	{"reverse sorted", func(i, n int, rng *rand.Rand) float64 { return float64(n-i) / 3 }},
	{"organ pipe", func(i, n int, rng *rand.Rand) float64 { return float64(min(i, n-i)) }},
	{"sawtooth", func(i, n int, rng *rand.Rand) float64 { return float64(i % 7) }},
	{"infinities", func(i, n int, rng *rand.Rand) float64 {
		return []float64{math.Inf(1), math.Inf(-1), rng.Float64(), rng.Float64()}[rng.Intn(4)]
	}},
	{"NaNs", func(i, n int, rng *rand.Rand) float64 {
		return []float64{math.NaN(), rng.Float64(), rng.Float64(), -rng.Float64()}[rng.Intn(4)]
	}},
	{"signed zeros", func(i, n int, rng *rand.Rand) float64 {
		return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
	}},
}

func TestPercentileMatchesSorted(t *testing.T) {
	for _, shape := range percentileShapes {
		for _, n := range []int{1, 2, 31, 32, 33, 1000, 100_000, 100_001} {
			rng := rand.New(rand.NewSource(int64(n)))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.at(i, n, rng)
			}
			orig := append([]float64(nil), xs...)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			ps := []float64{0, 1e-9, 50, 95, 99, 99.9, 100 - 1e-9, 100, -1, 101, math.Inf(1)}
			for _, k := range []int{0, 1, n / 3, n - 2, n - 1} {
				if n > 1 && k >= 0 {
					ps = append(ps, 100*float64(k)/float64(n-1)) // a rank that is an index
				}
			}
			for _, p := range ps {
				got, want := Percentile(xs, p), percentileOfSorted(sorted, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s, n=%d: Percentile(%v) = %v (%#x), sorting gives %v (%#x)",
						shape.name, n, p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("%s, n=%d: input reordered at %d", shape.name, n, i)
				}
			}
		}
	}
}

// TestPercentileInPlaceMatchesPercentile draws random inputs on both sides
// of selectMin — duplicates throughout, with ±0 and NaN in some — and holds
// PercentileInPlace to Percentile and to the sorted reference bit for bit,
// whatever order it leaves its input in.
func TestPercentileInPlaceMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(3*selectMin)
		if trial%10 == 0 {
			n = 1 + rng.Intn(5000)
		}
		pool := []float64{rng.NormFloat64(), rng.NormFloat64(), 1.25, 1.25, 0}
		switch trial % 4 {
		case 1:
			pool = append(pool, negZero)
		case 2:
			pool = append(pool, math.NaN())
		case 3:
			pool = append(pool, negZero, math.NaN(), math.Inf(1), math.Inf(-1))
		}
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(2) == 0 {
				xs[i] = pool[rng.Intn(len(pool))]
			} else {
				xs[i] = rng.NormFloat64()
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		p := []float64{0, 50, 95, 100, 100 * rng.Float64()}[rng.Intn(5)]
		want := Percentile(xs, p)
		got := PercentileInPlace(append([]float64(nil), xs...), p)
		ref := percentileOfSorted(sorted, p)
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("trial %d, n=%d: PercentileInPlace(%v) = %v (%#x), Percentile %v (%#x), sorting %v (%#x)",
				trial, n, p, got, math.Float64bits(got), want, math.Float64bits(want), ref, math.Float64bits(ref))
		}
	}
	if got := PercentileInPlace(nil, 95); got != 0 {
		t.Fatalf("PercentileInPlace(nil) = %v, want 0", got)
	}
}

// TestSelectKth checks the selection itself at every k of small inputs,
// with partition budgets from none (sort outright) upward, so that the
// hand-over from partitioning to sorting what is left is exercised at
// every depth: a[k] is what sorting gives, nothing left of it is greater
// and nothing right of it smaller.
func TestSelectKth(t *testing.T) {
	for _, shape := range percentileShapes[:7] { // the shapes without NaN
		for _, n := range []int{1, 2, 3, 4, 17, 64, 257} {
			rng := rand.New(rand.NewSource(int64(n)))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.at(i, n, rng)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for k := 0; k < n; k++ {
				for _, rounds := range []int{0, 1, 2, 3, 5, 64} {
					a := append([]float64(nil), xs...)
					selectKth(a, k, rounds)
					ok := a[k] == sorted[k]
					for i, x := range a {
						ok = ok && (i >= k || x <= a[k]) && (i <= k || x >= a[k])
					}
					if !ok {
						t.Fatalf("%s, n=%d: selectKth(k=%d, rounds=%d) left %v; sorted[k] = %v", shape.name, n, k, rounds, a, sorted[k])
					}
				}
			}
		}
	}
}

// BenchmarkPercentile reads the P95 of 10⁵ samples — an emulation
// episode's latency series — by selection and, for scale, by sorting.
func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = 1 + 0.02*rng.NormFloat64()
	}
	for _, form := range []struct {
		name string
		f    func([]float64, float64) float64
	}{{"select", Percentile}, {"sorted-reference", percentileBySorting}} {
		b.Run(fmt.Sprintf("%s/n=%d", form.name, len(xs)), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += form.f(xs, 95)
			}
			_ = sink
		})
	}
}
