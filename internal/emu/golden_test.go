package emu

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
)

// The golden tests pin everything the two emulators hand back for one
// short fixed-seed run each, section by section, against hashes captured
// before the tick loops were restructured. A host-only optimisation must
// leave every emulated watt, latency and recorder event bit-identical; a
// failure names the section that moved. The constants were captured on
// amd64; architectures that fuse multiply-adds round differently.

// sectionHash is the fnv-1a hash of v's JSON encoding. encoding/json
// renders floats in their shortest round-tripping form and map keys in
// sorted order, so equal hashes mean bit-equal values.
func sectionHash(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("golden: encoding %T: %v", v, err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func checkGolden(t *testing.T, got map[string]string, want map[string]string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were captured on amd64, not %s", runtime.GOARCH)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("section %-12s hash %s, want %s", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("hashed %d sections, golden has %d", len(got), len(want))
	}
	if t.Failed() {
		t.Logf("got: %#v", got)
	}
}

func TestRunGolden(t *testing.T) {
	rec := recorder.New(1 << 18)
	aud := slo.NewAuditor(slo.Config{
		Store:         tsdb.NewStore(tsdb.Options{}),
		Recorder:      rec,
		UPSFreshness:  3 * time.Second,
		RackFreshness: 4 * time.Second,
	})
	res, err := Run(context.Background(), Config{
		FailAt:                150 * time.Second,
		RecoverAt:             270 * time.Second,
		Duration:              360 * time.Second,
		Seed:                  7,
		InjectTelemetryFaults: true,
		Obs:                   obs.NewRegistry(),
		Tracer:                obs.NewTracer(64),
		Recorder:              rec,
		Safety:                aud,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionLatency < 0 || res.ShaveLatency <= 0 || !res.RestoredAll {
		t.Fatalf("golden run is not a full failover-and-recovery arc: detect %v, shave %v, restored %v",
			res.DetectionLatency, res.ShaveLatency, res.RestoredAll)
	}
	if rec.Overwritten() > 0 {
		t.Fatalf("recorder overwrote %d events; the stream hash needs all of them", rec.Overwritten())
	}
	series := res.Series
	res.Series = nil
	checkGolden(t, map[string]string{
		"series":      sectionHash(t, series),
		"scalars":     sectionHash(t, res),
		"events":      sectionHash(t, rec.Snapshot()),
		"transitions": sectionHash(t, aud.Transitions()),
	}, map[string]string{
		"series":      "919e91a18004473a",
		"scalars":     "44dc4828be06cb8b",
		"events":      "cbe1aaa65ae515cf",
		"transitions": "b6a609285dc1aaca",
	})
}

func TestRunFleetGolden(t *testing.T) {
	rec := recorder.New(1 << 18)
	res, err := RunFleet(context.Background(), FleetConfig{
		Rooms:          3,
		FailRoom:       1,
		FailUPS:        1,
		FailAt:         10 * time.Second,
		Duration:       40 * time.Second,
		Controllers:    2,
		SaturateRoom:   2,
		SaturateFactor: 8,
		Seed:           7,
		Obs:            obs.NewRegistry(),
		Recorder:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if flooded := res.Snapshot.Rooms[2].Dropped; res.DetectLatency < 0 || res.ShedLatency <= 0 || flooded == 0 {
		t.Fatalf("golden run is not a shed under a flooded neighbour: detect %v, shed %v, flooded-room drops %d",
			res.DetectLatency, res.ShedLatency, flooded)
	}
	if rec.Overwritten() > 0 {
		t.Fatalf("recorder overwrote %d events; the stream hash needs all of them", rec.Overwritten())
	}
	// Committed headroom is a float sum over the rack manager's record, in
	// rack order (fleet.Shard); the golden pins it to the milliwatt.
	snap := res.Snapshot
	milliwatt := func(w *float64) { *w = math.Round(*w*1e3) / 1e3 }
	hr := float64(snap.CommittedHeadroom)
	milliwatt(&hr)
	snap.CommittedHeadroom = 0
	rooms := make([]float64, len(snap.Rooms))
	for i := range snap.Rooms {
		rooms[i] = float64(snap.Rooms[i].CommittedHeadroom)
		milliwatt(&rooms[i])
		snap.Rooms[i].CommittedHeadroom = 0
	}
	episodes, stages := res.Episodes, res.Stages
	res.Snapshot, res.Episodes, res.Stages = snap, nil, nil
	res.Snapshot.Rooms, res.Snapshot.Stages = nil, nil
	checkGolden(t, map[string]string{
		"scalars":  sectionHash(t, res),
		"rooms":    sectionHash(t, snap.Rooms),
		"headroom": sectionHash(t, append(rooms, hr)),
		"episodes": sectionHash(t, episodes),
		"stages":   sectionHash(t, [2]any{stages, snap.Stages}),
		"events":   sectionHash(t, rec.Snapshot()),
	}, map[string]string{
		"scalars":  "bd308cf16b956b0b",
		"rooms":    "d9d4e84cfece7a78",
		"headroom": "1d223e74f426b0eb",
		"episodes": "3c454c951f92725d",
		"stages":   "a66141ad6ccbe36d",
		"events":   "14d3a50c9d2be6bc",
	})
}

// TestRunAllocations pins the bytes one emulation allocates: TestRunGolden's
// run (the same config, built afresh each try; the recorder, auditor,
// registry and tracer are made before the count starts). The least of three
// tries, since the count is process-wide, must stay within 5 % of the
// measured figure. That is ≈ 74 kB over the run's 721 ticks, so a new
// allocation of a hundred bytes every tick fails it.
func TestRunAllocations(t *testing.T) {
	const measured uint64 = 1470080
	got := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		rec := recorder.New(1 << 18)
		cfg := Config{
			FailAt:                150 * time.Second,
			RecoverAt:             270 * time.Second,
			Duration:              360 * time.Second,
			Seed:                  7,
			InjectTelemetryFaults: true,
			Obs:                   obs.NewRegistry(),
			Tracer:                obs.NewTracer(64),
			Recorder:              rec,
			Safety: slo.NewAuditor(slo.Config{
				Store:         tsdb.NewStore(tsdb.Options{}),
				Recorder:      rec,
				UPSFreshness:  3 * time.Second,
				RackFreshness: 4 * time.Second,
			}),
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Run allocated %d B", got)
	if limit := measured * 105 / 100; got > limit {
		t.Errorf("Run allocated %d B, over %d B (%d B measured + 5 %%)", got, limit, measured)
	}
}
