package telemetry

import (
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
	"flex/internal/power"
)

// TestPipelineDedupesRedundantPaths pins the consumer side of Figure 7: one
// poll as two pollers × two brokers deliver it — poller B measured a
// millisecond after A, and broker A happens to hand over B's batch first —
// then a stale repeat. Every device goes into the view once, with B's
// reading; every other copy is refused and counted as a dedupe hit, and the
// publish lag is observed once per install.
func TestPipelineDedupesRedundantPaths(t *testing.T) {
	clk := clock.NewVirtual(t0().Add(time.Second))
	pl := NewPipeline(PipelineConfig{Clock: clk, Obs: obs.NewRegistry()})
	view := NewLatestPower()
	devices := []string{"UPS-1", "UPS-2", "UPS-3"}
	poll := func(at time.Time, base power.Watts) []Sample {
		batch := make([]Sample, len(devices))
		for i, d := range devices {
			batch[i] = Sample{Device: d, Power: base + power.Watts(i), Valid: true, MeasuredAt: at}
		}
		return batch
	}
	pollA := poll(t0(), 1000)
	pollB := poll(t0().Add(time.Millisecond), 2000)
	stale := []Sample{{Device: "UPS-2", Power: 9, Valid: true, MeasuredAt: t0().Add(-time.Second)}}

	deliveries := [][]Sample{pollB, pollA, pollA, pollB, stale} // broker A: B, A; broker B: A, B
	copies := 0
	for _, batch := range deliveries {
		pl.install(batch, view)
		copies += len(batch)
	}

	for i, d := range devices {
		v, at, ok := view.Get(d)
		if !ok || v != pollB[i].Power || !at.Equal(pollB[i].MeasuredAt) {
			t.Errorf("%s: view holds %v measured %v (ok %v), want poller B's %v at %v", d, v, at, ok, pollB[i].Power, pollB[i].MeasuredAt)
		}
		if st, _ := view.GetStamps(d); !st.DequeuedAt.Equal(clk.Now()) {
			t.Errorf("%s: dequeue stamp %v, want the pipeline clock's %v", d, st.DequeuedAt, clk.Now())
		}
	}
	installs := len(devices)
	if got := pl.Metrics.DedupeHits.Value(); got != uint64(copies-installs) {
		t.Errorf("flex_telemetry_dedupe_hits_total = %d, want the %d refused copies", got, copies-installs)
	}
	if got := pl.Metrics.PublishLag.Count(); got != uint64(installs) {
		t.Errorf("flex_telemetry_publish_lag_seconds count = %d, want the %d installs", got, installs)
	}
}

// TestPipelineInvalidCopyDoesNotBlockValid: one path's poller lost quorum at
// t, the other's read the device at the same t. The invalid copy arrives
// first and must not take t from the valid one.
func TestPipelineInvalidCopyDoesNotBlockValid(t *testing.T) {
	pl := NewPipeline(PipelineConfig{Clock: clock.NewVirtual(t0()), Obs: obs.NewRegistry()})
	view := NewLatestPower()
	pl.install([]Sample{
		{Device: "UPS-1", Valid: false, MeasuredAt: t0()},
		{Device: "UPS-1", Power: 500, Valid: true, MeasuredAt: t0()},
	}, view)
	if v, at, ok := view.Get("UPS-1"); !ok || v != 500 || !at.Equal(t0()) {
		t.Fatalf("view holds %v at %v (ok %v), want the valid 500 W taken at %v", v, at, ok, t0())
	}
	if hits, lag := pl.Metrics.DedupeHits.Value(), pl.Metrics.PublishLag.Count(); hits != 1 || lag != 1 {
		t.Fatalf("dedupe hits %d, publish lags %d; want the invalid copy refused and the valid one installed", hits, lag)
	}
}
