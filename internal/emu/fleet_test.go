package emu

import (
	"context"
	"testing"
	"time"

	"flex/internal/obs/slo"
	"flex/internal/power"
)

// TestRunFleetShedsWithinBudget is the fleet smoke: a 10-room emulation
// where one room's UPS fails. The failed room must detect and shed inside
// the 10s FlexLatencyBudget, no room may trip, and the aggregate stranded
// power must equal the sum of per-room Eq. 5.
func TestRunFleetShedsWithinBudget(t *testing.T) {
	res, err := RunFleet(context.Background(), FleetConfig{Rooms: 10, FailRoom: 3, FailUPS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectLatency < 0 {
		t.Fatal("UPS failure never produced a corrective action")
	}
	if res.ShedLatency < 0 || res.ShedLatency > power.FlexLatencyBudget {
		t.Fatalf("shed latency = %v, want within %v", res.ShedLatency, power.FlexLatencyBudget)
	}
	if res.Outage {
		t.Fatal("a UPS outlasted its trip curve")
	}
	if res.CrossRoomDrops != 0 {
		t.Fatalf("unsaturated rooms dropped %d samples, want 0", res.CrossRoomDrops)
	}
	if got, want := res.Snapshot.StrandedPower, power.Watts(10)*res.PerRoomStranded; got != want {
		t.Fatalf("aggregate stranded = %v, want 10 × %v = %v", got, res.PerRoomStranded, want)
	}
	if len(res.Snapshot.Rooms) != 10 {
		t.Fatalf("snapshot has %d rooms, want 10", len(res.Snapshot.Rooms))
	}
	// Every shard saw telemetry within freshness by the final tick.
	for _, room := range res.Snapshot.Rooms {
		if room.TelemetryAge < 0 {
			t.Fatalf("room %s never received telemetry", room.Name)
		}
		if room.Pumped == 0 || room.Steps == 0 {
			t.Fatalf("room %s: pumped=%d steps=%d, want both > 0", room.Name, room.Pumped, room.Steps)
		}
	}
}

// TestRunFleetShardIsolation saturates one room's ingest queue while a
// different room's UPS fails: backpressure must engage (drops counted) in
// the flooded room only, and the failed room must still shed within the
// 10s budget — zero cross-shard stall.
func TestRunFleetShardIsolation(t *testing.T) {
	res, err := RunFleet(context.Background(), FleetConfig{
		Rooms:          4,
		FailRoom:       0,
		FailUPS:        2,
		SaturateRoom:   1,
		SaturateFactor: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Rooms[1].Dropped == 0 {
		t.Fatal("flooded shard dropped nothing; backpressure not engaged")
	}
	if res.CrossRoomDrops != 0 {
		t.Fatalf("non-flooded rooms dropped %d samples, want 0", res.CrossRoomDrops)
	}
	if res.ShedLatency < 0 || res.ShedLatency > power.FlexLatencyBudget {
		t.Fatalf("shed latency = %v under neighbor saturation, want within %v",
			res.ShedLatency, power.FlexLatencyBudget)
	}
	if res.Outage {
		t.Fatal("a UPS outlasted its trip curve")
	}
	// The flooded room keeps functioning on its newest samples: drop-oldest
	// sheds stale data, not the room's health.
	for _, room := range res.Snapshot.Rooms {
		if room.Name == "room-001" {
			if room.State == slo.StateUnsafe {
				t.Fatalf("flooded room went unsafe: %+v", room)
			}
			if room.Dropped == 0 {
				t.Fatal("flooded room reports no drops in snapshot")
			}
		}
	}
}

// TestRunFleetHorizonEpisode pins a run whose failed room sheds inside the
// budget and, long after, crosses a survivor's limit again on the very last
// tick: that new overdraw episode is half a second old when a 120 s run
// ends, so the room ends degraded (never unsafe, no outage), and the same
// run given 30 s more closes it and ends ready. The seed is flexbench's
// fleet-failover repetition-22 dynamics seed at seed 1, the repetition that
// fails an operation from `-seconds 36` on; one changed bit in the dynamics
// can move that crossing, so this is also a tripwire for the kernel's
// arithmetic.
func TestRunFleetHorizonEpisode(t *testing.T) {
	for _, tc := range []struct {
		duration time.Duration
		want     slo.State
	}{{120 * time.Second, slo.StateDegraded}, {150 * time.Second, slo.StateReady}} {
		res, err := RunFleet(context.Background(), FleetConfig{
			Rooms: 100, Seed: 8689443845947335796, TraceSeed: 9,
			FailAt: 20 * time.Second, FailRoom: 0, FailUPS: 0, Duration: tc.duration,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outage || res.ShedLatency != time.Second {
			t.Errorf("%v: outage %v, shed %v; want a 1s shed and no outage", tc.duration, res.Outage, res.ShedLatency)
		}
		r := res.Snapshot.Rooms[0]
		open := tc.want == slo.StateDegraded
		if r.State != tc.want || r.OpenEpisode != open || open && r.EpisodeAge != 500*time.Millisecond {
			t.Errorf("%v: room 0 ends %v (%v), episode open %v for %v; want %v", tc.duration, r.State, r.Reasons, r.OpenEpisode, r.EpisodeAge, tc.want)
		}
		for _, other := range res.Snapshot.Rooms[1:] {
			if other.State != slo.StateReady {
				t.Errorf("%v: %s ends %v (%v), want ready", tc.duration, other.Name, other.State, other.Reasons)
			}
		}
	}
}

// TestRunFleetValidation rejects an out-of-range FailRoom.
func TestRunFleetValidation(t *testing.T) {
	if _, err := RunFleet(context.Background(), FleetConfig{Rooms: 2, FailRoom: 5}); err == nil {
		t.Fatal("out-of-range FailRoom accepted")
	}
}

// TestRunFleetSingleRoom exercises the degenerate 1-room fleet — the
// configuration the per-room-count benchmark starts from.
func TestRunFleetSingleRoom(t *testing.T) {
	res, err := RunFleet(context.Background(), FleetConfig{Rooms: 1, Duration: 40 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedLatency < 0 || res.ShedLatency > power.FlexLatencyBudget {
		t.Fatalf("shed latency = %v, want within %v", res.ShedLatency, power.FlexLatencyBudget)
	}
}
