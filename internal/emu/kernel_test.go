package emu

import (
	"context"
	"strings"
	"testing"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// TestEventsFireOffGrid stages the failure and the recovery at times a
// 700ms tick does not divide: both must still happen, once, on the first
// tick past them, with the latencies counted from the tick that failed
// the UPS.
func TestEventsFireOffGrid(t *testing.T) {
	const tick = 700 * time.Millisecond
	rec := recorder.New(1 << 18)
	res, err := Run(context.Background(), Config{
		Tick: tick, FailAt: 150 * time.Second, RecoverAt: 270 * time.Second, Duration: 360 * time.Second,
		FailUPS: 2, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []recorder.Type{recorder.TypeUPSFail, recorder.TypeUPSRecover} {
		if n := len(rec.Query(recorder.Filter{Type: typ})); n != 1 {
			t.Errorf("%d %v events, want 1", n, typ)
		}
	}
	dark := 0
	for _, pt := range res.Series {
		if pt.UPSPower[2] == 0 {
			dark++
		}
	}
	// Out from the first tick at or past 150s (150.5s) to the last before 270.2s.
	if want := 171; dark != want {
		t.Errorf("UPS 2 carried nothing on %d ticks, want %d", dark, want)
	}
	if res.DetectionLatency < 0 || res.DetectionLatency%tick != 0 {
		t.Errorf("detection latency %v, want a whole number of ticks after the failure", res.DetectionLatency)
	}
	if res.ShaveLatency <= 0 || res.ShaveLatency > power.FlexLatencyBudget || res.ShaveLatency%tick != 0 {
		t.Errorf("shave latency %v, want whole ticks within (0, %v]", res.ShaveLatency, power.FlexLatencyBudget)
	}
	if res.Outage || !res.RestoredAll {
		t.Errorf("outage %v, restored %v; want a clean failover and every rack back", res.Outage, res.RestoredAll)
	}

	fl, err := RunFleet(context.Background(), FleetConfig{Rooms: 2, Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	if fl.DetectLatency < 0 || fl.ShedLatency <= 0 || fl.ShedLatency > power.FlexLatencyBudget || fl.Outage {
		t.Errorf("fleet: detect %v, shed %v, outage %v; want the failure detected and shed within %v",
			fl.DetectLatency, fl.ShedLatency, fl.Outage, power.FlexLatencyBudget)
	}
	if fl.Snapshot.Rooms[0].ActedRacks == 0 {
		t.Error("fleet: the failed room acted on no rack")
	}
}

// TestNoFailureNoLatencies: a failure staged past the end of the run
// never happens, and neither emulator may report latencies for it.
func TestNoFailureNoLatencies(t *testing.T) {
	res, err := Run(context.Background(), Config{FailAt: time.Hour, RecoverAt: 2 * time.Hour, Duration: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionLatency != -1 || res.ShaveLatency != -1 {
		t.Errorf("Run: detect %v, shave %v for a failure that never happened", res.DetectionLatency, res.ShaveLatency)
	}
	fl, err := RunFleet(context.Background(), FleetConfig{Rooms: 1, FailAt: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if fl.DetectLatency != -1 || fl.ShedLatency != -1 {
		t.Errorf("RunFleet: detect %v, shed %v for a failure that never happened", fl.DetectLatency, fl.ShedLatency)
	}
}

// TestIndexValidation: a UPS or room index outside the emulated plant is
// an error that names the field and the valid range, never a panic or a
// run that quietly fails nothing.
func TestIndexValidation(t *testing.T) {
	run := func(cfg Config) error { _, err := Run(context.Background(), cfg); return err }
	fleet := func(cfg FleetConfig) error { _, err := RunFleet(context.Background(), cfg); return err }
	short := Config{FailAt: 10 * time.Second, RecoverAt: 20 * time.Second, Duration: 30 * time.Second}
	withUPS := func(u power.UPSID, rec *recorder.Recorder) Config {
		cfg := short
		cfg.FailUPS, cfg.Recorder = u, rec
		return cfg
	}
	for _, tc := range []struct {
		name string
		err  error
		want string // "" when the config is valid
	}{
		{"run/ups-9", run(withUPS(9, nil)), "FailUPS 9 out of range [0,4)"},
		{"run/ups-9-recorded", run(withUPS(9, recorder.New(64))), "FailUPS 9 out of range [0,4)"},
		{"run/ups-negative", run(withUPS(-1, nil)), "FailUPS -1 out of range [0,4)"},
		{"run/ups-3", run(withUPS(3, recorder.New(1<<16))), ""},
		{"fleet/ups-9", fleet(FleetConfig{Rooms: 2, FailUPS: 9}), "FailUPS 9 out of range [0,4)"},
		{"fleet/ups-9-recorded", fleet(FleetConfig{Rooms: 2, FailUPS: 9, Recorder: recorder.New(64)}), "FailUPS 9 out of range [0,4)"},
		{"fleet/room-5", fleet(FleetConfig{Rooms: 2, FailRoom: 5}), "FailRoom 5 out of range [0,2)"},
		{"fleet/flood-5", fleet(FleetConfig{Rooms: 2, SaturateRoom: 5, SaturateFactor: 1}), "SaturateRoom 5 out of range [0,2)"},
		{"fleet/flood-negative", fleet(FleetConfig{Rooms: 2, SaturateRoom: -1, SaturateFactor: 1}), "SaturateRoom -1 out of range [0,2)"},
		{"fleet/flood-off", fleet(FleetConfig{Rooms: 2, SaturateRoom: 5}), ""},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: %v, want the config accepted", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one saying %q", tc.name, tc.err, tc.want)
		}
	}
}
