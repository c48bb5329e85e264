package emu

import (
	"context"
	"runtime"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/power"
)

// BenchmarkRunInstrumented is the 24-minute failover-and-recovery arc with
// every instrument attached — registry, tracer, a recorder large enough
// never to wrap, auditor and sampler, three primaries, telemetry faults:
// the wiring flexbench's room-episode workload times from outside. It
// reports the cost of one emulation tick (us/tick, B/tick), so the tick
// can be profiled from here:
//
//	go test -run '^$' -bench RunInstrumented -benchtime 5x -cpuprofile cpu.out ./internal/emu
//
// Recorded in BENCH_obs.json by `make bench-obs`.
func BenchmarkRunInstrumented(b *testing.B) {
	const duration, tick = 24 * time.Minute, 500 * time.Millisecond
	ticks := float64(duration/tick + 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := recorder.New(1 << 18)
		res, err := Run(context.Background(), Config{
			Duration:              duration,
			Tick:                  tick,
			Seed:                  int64(i + 1),
			InjectTelemetryFaults: true,
			Obs:                   obs.NewRegistry(),
			Tracer:                obs.NewTracer(256),
			Recorder:              rec,
			Safety: slo.NewAuditor(slo.Config{
				Store:         tsdb.NewStore(tsdb.Options{}),
				Recorder:      rec,
				UPSFreshness:  3 * time.Second,
				RackFreshness: 4 * time.Second,
			}),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Outage || res.ShaveLatency <= 0 || res.ShaveLatency > power.FlexLatencyBudget {
			b.Fatalf("episode did not shed inside the budget: outage %v, shave %v", res.Outage, res.ShaveLatency)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * ticks
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/tick")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/tick")
}
