package emu

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/power"
)

// instrumentedEpisode is the 24-minute failover-and-recovery arc with every
// instrument attached — registry, tracer, a recorder large enough never to
// wrap, auditor, three primaries, telemetry faults: the wiring flexbench's
// room-episode workload times. Like flexbench, callers build it outside
// what they measure; the tsdb sampler is no part of Run.
func instrumentedEpisode(seed int64) Config {
	rec := recorder.New(1 << 18)
	return Config{
		Duration:              episodeDuration,
		Tick:                  episodeTick,
		Seed:                  seed,
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
	}
}

// runInstrumented runs cfg and returns the bytes Run allocated, failing tb
// unless the episode shed inside the budget.
func runInstrumented(tb testing.TB, cfg Config) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Outage || res.ShaveLatency <= 0 || res.ShaveLatency > power.FlexLatencyBudget {
		tb.Fatalf("episode did not shed inside the budget: outage %v, shave %v", res.Outage, res.ShaveLatency)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// The instrumented episode's timeline and the ticks it runs.
const (
	episodeDuration, episodeTick = 24 * time.Minute, 500 * time.Millisecond
	episodeTicks                 = uint64(episodeDuration/episodeTick + 1)
)

// BenchmarkRunInstrumented reports the cost of one tick of the instrumented
// episode (us/tick, B/tick); the instruments are built outside the
// measured time and bytes, so B/tick is what Run itself allocates. The tick
// can be profiled from here:
//
//	go test -run '^$' -bench RunInstrumented -benchtime 5x -cpuprofile cpu.out ./internal/emu
//
// Recorded in BENCH_obs.json by `make bench-obs`.
func BenchmarkRunInstrumented(b *testing.B) {
	var bytes uint64
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		cfg := instrumentedEpisode(int64(i + 1))
		b.StartTimer()
		bytes += runInstrumented(b, cfg)
		b.StopTimer()
	}
	n := float64(uint64(b.N) * episodeTicks)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/tick")
	b.ReportMetric(float64(bytes)/n, "B/tick")
}

// TestRunInstrumentedBytesPerTick pins what the instrumented episode's Run
// allocates per tick, placement solve included: the least of three tries,
// each after a collection, since the count is process-wide, must stay
// within 5 % of the measured figure. Scraping the registry into a store every tick, buffering every
// latency sample for the P95s, or making a map for each timeline point,
// each cost well over that.
func TestRunInstrumentedBytesPerTick(t *testing.T) {
	const measured = 787 // B/tick
	got := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		runtime.GC()
		got = min(got, runInstrumented(t, instrumentedEpisode(1))/episodeTicks)
	}
	t.Logf("Run allocated %d B/tick", got)
	if limit := uint64(measured * 105 / 100); got > limit {
		t.Errorf("Run allocated %d B/tick, over %d B/tick (%d B/tick measured + 5 %%)", got, limit, measured)
	}
}
