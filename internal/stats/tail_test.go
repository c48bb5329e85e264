package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkTail adds xs to tl and holds its Percentile to PercentileInPlace of
// the same values bit for bit.
func checkTail(t *testing.T, what string, tl *Tail, xs []float64, p float64) {
	t.Helper()
	for _, x := range xs {
		tl.Add(x)
	}
	got, want := tl.Percentile(), PercentileInPlace(append([]float64(nil), xs...), p)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %d values, p=%v: Tail.Percentile = %v (%#x), PercentileInPlace %v (%#x)",
			what, len(xs), p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// FuzzTailMatchesPercentile is the differential test of Tail against
// PercentileInPlace. The bytes choose p in (0, 100), two streams read one
// after the other from one Tail — so the second reuses what the first's
// Percentile emptied — and the Tail's declared length: the longer stream's
// length plus up to 39, so that most streams stop short of the bound. A
// value byte below 200 is one of 13 small integers (ties); any other starts
// an eight-byte float, NaN and −0 mapped to +0.
func FuzzTailMatchesPercentile(f *testing.F) {
	f.Add([]byte{0x33, 0xf3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})     // p≈95, declared length met
	f.Add([]byte{0x00, 0x80, 3, 20, 7, 7, 7, 7, 7, 7, 1, 2, 7, 7}) // p≈50, ties, short of the bound
	f.Add([]byte{0xff, 0xff, 0, 0, 250, 1, 2, 3, 4, 5, 6, 7, 8, 12})
	for seed := int64(1); seed <= 4; seed++ {
		buf := make([]byte, 64<<seed) // up to 1 KiB: both streams past selectMin
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("need p, a split and a slack")
		}
		p := (float64(binary.LittleEndian.Uint16(data)) + 1) / 65537 * 100
		var xs []float64
		for rest := data[4:]; len(rest) > 0; {
			b := rest[0]
			if b < 200 || len(rest) < 9 {
				xs, rest = append(xs, float64(b%13)), rest[1:]
				continue
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(rest[1:]))
			if x != x || x == 0 {
				x = 0 // no NaN, no −0
			}
			xs, rest = append(xs, x), rest[9:]
		}
		cut := int(data[2]) % (len(xs) + 1)
		first, second := xs[:cut], xs[cut:]
		tl := NewTail(max(len(first), len(second))+int(data[3])%40, p)
		checkTail(t, "first stream", tl, first, p)
		checkTail(t, "second stream", tl, second, p)
	})
}

// TestTailMatchesPercentileShapes holds Tail to PercentileInPlace on the
// NaN- and −0-free shapes PercentileInPlace itself is checked on, at
// episode-sized lengths, for streams that meet the declared length and
// streams that stop short of it.
func TestTailMatchesPercentileShapes(t *testing.T) {
	for _, shape := range percentileShapes[:8] { // through "infinities"
		for _, n := range []int{1, 2, 31, 32, 33, 1000, 100_001} {
			rng := rand.New(rand.NewSource(int64(n)))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.at(i, n, rng)
			}
			for _, p := range []float64{1e-9, 50, 95, 99.9, 100 - 1e-9} {
				tl := NewTail(n, p)
				for _, m := range []int{n, n - 1, n / 2, 0} {
					checkTail(t, shape.name, tl, xs[:m], p)
				}
			}
		}
	}
}

// TestTailPanicsPastItsLength: a value past the declared length is
// reported, before and after a Percentile has emptied the Tail.
func TestTailPanicsPastItsLength(t *testing.T) {
	addPast := func(tl *Tail, n int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		for i := range n + 1 {
			tl.Add(float64(i))
		}
		return false
	}
	for _, n := range []int{0, 1, 40} {
		tl := NewTail(n, 95)
		if !addPast(tl, n) {
			t.Fatalf("n=%d: Add past the declared length was not reported", n)
		}
		tl.Percentile()
		if !addPast(tl, n) {
			t.Fatalf("n=%d: Add past the declared length after a Percentile was not reported", n)
		}
	}
}
