package lp

import (
	"math"
	"math/rand"
	"testing"
)

// referencePivot is the plain indexed loop the unrolled pivot replaced,
// kept as the arithmetic it must reproduce bit for bit.
func referencePivot(t *tableau, leave, enter int) {
	row := t.a[leave]
	pv := row[enter]
	inv := 1 / pv
	for j := 0; j <= t.cols; j++ {
		row[j] *= inv
	}
	row[enter] = 1
	for i := 0; i <= t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if math.Abs(f) <= eps {
			t.a[i][enter] = 0
			continue
		}
		ri := t.a[i]
		for j := 0; j <= t.cols; j++ {
			ri[j] -= f * row[j]
		}
		ri[enter] = 0
	}
	t.basis[leave] = enter
}

// randomTableau fills an (m+1)×(cols+1) tableau with values that exercise
// the pivot's branches: about a fifth of the cells are exact zeros, and
// the entering column carries entries at and just either side of eps so
// the skip-row test is crossed both ways.
func randomTableau(rng *rand.Rand, m, cols, enter int) *tableau {
	t := &tableau{m: m, cols: cols, a: make([][]float64, m+1), basis: make([]int, m)}
	for i := range t.a {
		t.a[i] = make([]float64, cols+1)
		for j := range t.a[i] {
			if rng.Intn(5) > 0 {
				t.a[i][j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		switch rng.Intn(6) {
		case 0:
			t.a[i][enter] = 0
		case 1:
			t.a[i][enter] = eps
		case 2:
			t.a[i][enter] = -eps
		case 3:
			t.a[i][enter] = math.Nextafter(eps, 1)
		}
	}
	return t
}

func cloneTableau(t *tableau) *tableau {
	c := *t
	c.a = make([][]float64, len(t.a))
	for i := range t.a {
		c.a[i] = append([]float64(nil), t.a[i]...)
	}
	c.basis = append([]int(nil), t.basis...)
	return &c
}

// TestPivotMatchesReference: on random tableaux of every row length
// modulo four, the unrolled pivot leaves each cell with exactly the bits
// the plain loop leaves.
func TestPivotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(23)
		leave, enter := rng.Intn(m), rng.Intn(cols)
		got := randomTableau(rng, m, cols, enter)
		if math.Abs(got.a[leave][enter]) <= eps {
			got.a[leave][enter] = 0.75 // a pivot element is never within eps of zero
		}
		want := cloneTableau(got)
		got.pivot(leave, enter)
		referencePivot(want, leave, enter)
		for i := range want.a {
			for j := range want.a[i] {
				if math.Float64bits(got.a[i][j]) != math.Float64bits(want.a[i][j]) {
					t.Fatalf("trial %d (%d×%d, leave %d, enter %d): cell [%d][%d] = %x, reference %x",
						trial, m+1, cols+1, leave, enter, i, j, math.Float64bits(got.a[i][j]), math.Float64bits(want.a[i][j]))
				}
			}
		}
		if got.basis[leave] != enter {
			t.Fatalf("trial %d: basis[%d] = %d, want %d", trial, leave, got.basis[leave], enter)
		}
	}
}

// TestSubScaledMatchesLoop: for every length 0–70, with both slices
// starting at offsets 0–3 of their backing arrays (so neither is 16-byte
// aligned on some runs) and for factors at the edges of the float range,
// the kernel leaves every element of dst — and the padding around it —
// with the bits the plain indexed loop leaves. Any NaN equals any NaN: the
// hardware may propagate either operand's payload.
func TestSubScaledMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inf := math.Inf(1)
	factors := []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, -1e-300, 1e300, -1e300, inf, -inf, math.NaN()}
	specials := []float64{0, math.Copysign(0, -1), inf, -inf, math.NaN(), 1e300, -1e-300}
	value := func() float64 {
		if rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	const pad = 4
	for n := 0; n <= 70; n++ {
		for srcOff := 0; srcOff < 4; srcOff++ {
			for dstOff := 0; dstOff < 4; dstOff++ {
				for _, f := range factors {
					srcBuf := make([]float64, srcOff+n+pad)
					dstBuf := make([]float64, dstOff+n+pad)
					for i := range srcBuf {
						srcBuf[i] = value()
					}
					for i := range dstBuf {
						dstBuf[i] = value()
					}
					want := append([]float64(nil), dstBuf...)
					src := srcBuf[srcOff : srcOff+n]
					ref := want[dstOff : dstOff+n+pad]
					for j := range src {
						ref[j] -= f * src[j]
					}
					subScaled(dstBuf[dstOff:], src, f)
					for i := range want {
						if !same(dstBuf[i], want[i]) {
							t.Fatalf("n=%d src+%d dst+%d f=%v: dst[%d] = %x, loop %x",
								n, srcOff, dstOff, f, i-dstOff, math.Float64bits(dstBuf[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// BenchmarkPivot times one pivot of a 60×300 tableau — the shape of a
// batch-40 placement node's reduced LP — beside the plain loop it
// replaced. The tableau is refilled before every pivot, off the timer, so
// repeated elimination cannot drive the entering column to zero and turn
// the pivot into a row of skips.
func BenchmarkPivot(b *testing.B) {
	const m, cols, enter = 59, 299, 7
	rng := rand.New(rand.NewSource(1))
	src := randomTableau(rng, m, cols, enter)
	for i := range src.a {
		src.a[i][enter] = 0.25 + rng.Float64() // every row takes the update
	}
	for _, bc := range []struct {
		name  string
		pivot func(t *tableau, leave, enter int)
	}{
		{"unrolled", (*tableau).pivot},
		{"reference", referencePivot},
	} {
		b.Run(bc.name, func(b *testing.B) {
			t := cloneTableau(src)
			b.SetBytes(int64(m * (cols + 1) * 8))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for r := range src.a {
					copy(t.a[r], src.a[r])
				}
				b.StartTimer()
				bc.pivot(t, i%m, enter)
			}
		})
	}
}
