package tsdb

import (
	"testing"
	"time"

	"flex/internal/obs"
)

// BenchmarkAppend is the BENCH_obs.json ingest figure: one hot-path
// sample append into the ring. Must report 0 allocs/op (the
// //flex:hotpath contract).
func BenchmarkAppend(b *testing.B) {
	st := NewStore(Options{})
	s := st.Series("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(t0.Add(time.Duration(i)*500*time.Millisecond), float64(i))
	}
}

// BenchmarkQueryRaw re-buckets one minute of 500ms raw samples.
func BenchmarkQueryRaw(b *testing.B) {
	st := NewStore(Options{})
	s := st.Series("bench")
	for i := 0; i < 120; i++ {
		s.Append(t0.Add(time.Duration(i)*500*time.Millisecond), float64(i))
	}
	r := QueryRange{From: t0, To: t0.Add(time.Minute), Step: 5 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Query(r); len(pts) == 0 {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkQueryRollup answers an hour-scale query at a 1m step: an hour
// of 1s points (3600, inside the default ring) re-bucketed into 60.
func BenchmarkQueryRollup(b *testing.B) {
	st := NewStore(Options{})
	s := st.Series("bench")
	for i := 0; i < 3600; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	r := QueryRange{From: t0, To: t0.Add(time.Hour), Step: time.Minute, Agg: AggMax}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Query(r); len(pts) == 0 {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkSamplerTick scrapes a realistically sized registry (64
// gauges) into the store — the per-tick sampling cost in steady state,
// after the first scrape has resolved the handles and created the series.
// Must report 0 allocs/op.
func BenchmarkSamplerTick(b *testing.B) {
	reg := obs.NewRegistry()
	names := make([]*obs.Gauge, 64)
	for i := range names {
		names[i] = reg.Gauge("flex_bench_gauge_"+string(rune('a'+i%26))+string(rune('a'+i/26)), "")
		names[i].Set(float64(i))
	}
	st := NewStore(Options{})
	smp := &Sampler{Registry: reg, Store: st}
	smp.Tick(t0)
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		smp.Tick(t0.Add(time.Duration(i) * 500 * time.Millisecond))
	}
}
