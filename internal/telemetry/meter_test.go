package telemetry

import (
	"math"
	"runtime"
	"testing"
	"time"

	"flex/internal/power"
)

// meterReads reads n noisy values off a meter over a constant 1 kW source,
// one a second, and returns each as noise relative to the truth.
func meterReads(seed int64, n int) []float64 {
	m := NewSimMeter("m", func() power.Watts { return 1000 }, SimMeterConfig{Noise: 0.01, Seed: seed})
	rel := make([]float64, n)
	for i := range rel {
		v, _ := m.Read(t0().Add(time.Duration(i) * time.Second))
		rel[i] = float64(v)/1000 - 1
	}
	return rel
}

// TestSimMeterNoiseMoments: a meter's relative noise is centred on zero
// with standard deviation Noise. Over 20 000 reads the mean's standard
// error is 7·10⁻⁵ and the deviation's 5·10⁻⁵; both tolerances are ≈ 6 of
// those.
func TestSimMeterNoiseMoments(t *testing.T) {
	const n = 20000
	for _, seed := range []int64{0, 1, 1007} {
		var sum, sq float64
		for _, r := range meterReads(seed, n) {
			sum += r
			sq += r * r
		}
		mean := sum / n
		sd := math.Sqrt(sq/n - mean*mean)
		if math.Abs(mean) > 4e-4 {
			t.Errorf("seed %d: mean relative noise %.2e, want 0 ± 4e-4", seed, mean)
		}
		if math.Abs(sd-0.01) > 3e-4 {
			t.Errorf("seed %d: relative noise deviation %.5f, want 0.01 ± 3e-4", seed, sd)
		}
	}
}

// TestSimMeterAdjacentSeedsUncorrelated: the emulator seeds rack i's meter
// with Seed+1000+i, so meters one seed apart must not draw related noise.
// Over 20 000 reads the correlation's standard error is 0.007.
func TestSimMeterAdjacentSeedsUncorrelated(t *testing.T) {
	const n = 20000
	for _, seed := range []int64{0, 1001, 1274} {
		a, b := meterReads(seed, n), meterReads(seed+1, n)
		var sa, sb, saa, sbb, sab float64
		for i := range a {
			sa, sb = sa+a[i], sb+b[i]
			saa, sbb, sab = saa+a[i]*a[i], sbb+b[i]*b[i], sab+a[i]*b[i]
		}
		cov := sab/n - sa/n*sb/n
		rho := cov / math.Sqrt((saa/n-sa/n*sa/n)*(sbb/n-sb/n*sb/n))
		if math.Abs(rho) >= 0.03 {
			t.Errorf("seeds %d and %d: noise correlation %.4f, want |ρ| < 0.03", seed, seed+1, rho)
		}
	}
}

// TestSimMeterSkippedReadsDrawNothing: a failed read and a stale read take
// no draw from the noise stream, so the meter's successful reads continue
// the sequence an unfailed, never-stale meter of the same seed reads.
func TestSimMeterSkippedReadsDrawNothing(t *testing.T) {
	src := func() power.Watts { return 1000 }
	ref := NewSimMeter("ref", src, SimMeterConfig{Noise: 0.01, Seed: 42})
	want := make([]power.Watts, 6)
	for i := range want {
		want[i], _ = ref.Read(t0().Add(time.Duration(i) * time.Hour))
	}

	failing := NewSimMeter("failing", src, SimMeterConfig{Noise: 0.01, Seed: 42})
	var got []power.Watts
	for i := 0; len(got) < len(want); i++ {
		failing.SetFailed(i%3 == 1)
		if v, err := failing.Read(t0().Add(time.Duration(i) * time.Hour)); err == nil {
			got = append(got, v)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read %d after failures = %.3f W, want the unfailed meter's %.3f W", i, float64(got[i]), float64(want[i]))
		}
	}

	stale := NewSimMeter("stale", src, SimMeterConfig{Noise: 0.01, Seed: 42, StaleFor: 5 * time.Second})
	for i := range want {
		at := t0().Add(time.Duration(i) * time.Minute)
		v, _ := stale.Read(at)
		if v != want[i] {
			t.Fatalf("fresh read %d = %.3f W, want %.3f W", i, float64(v), float64(want[i]))
		}
		if v, _ := stale.Read(at.Add(2 * time.Second)); v != want[i] {
			t.Fatalf("stale read after %d = %.3f W, want the repeated %.3f W", i, float64(v), float64(want[i]))
		}
	}
}

// TestNewSimMeterFootprint: a meter's noise source is a 16-byte PCG held in
// the meter, so building one allocates the meter and nothing more. A
// lagged-Fibonacci source (5 376 B) would fail this many times over.
func TestNewSimMeterFootprint(t *testing.T) {
	const n = 1000
	src := func() power.Watts { return 1000 }
	meters := make([]*SimMeter, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range meters {
		meters[i] = NewSimMeter("rack", src, SimMeterConfig{Noise: 0.01, Seed: int64(i)})
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("NewSimMeter allocates %d B", per)
	if per > 256 {
		t.Errorf("NewSimMeter allocates %d B, want ≤ 256", per)
	}
}
