package fleet

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/slo"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

func t0() time.Time { return time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC) }

// testTopo builds a small 4N/3 room: 4 × 100kW UPSes, 6 PDU-pairs.
func testTopo(t *testing.T) *power.Topology {
	t.Helper()
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         100 * power.KW,
		PairsPerCombination: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// testRacks places one software-redundant and one cap-able rack per pair,
// with IDs prefixed by room so rooms never collide.
func testRacks(room string, topo *power.Topology) []controller.ManagedRack {
	var racks []controller.ManagedRack
	for _, p := range topo.Pairs {
		racks = append(racks,
			controller.ManagedRack{ID: fmt.Sprintf("%s-sr-%d", room, p.ID), Workload: "websearch",
				Category: workload.SoftwareRedundant, Pair: p.ID,
				Allocated: 10 * power.KW, FlexPower: 0},
			controller.ManagedRack{ID: fmt.Sprintf("%s-cap-%d", room, p.ID), Workload: "vmservice",
				Category: workload.NonRedundantCapable, Pair: p.ID,
				Allocated: 10 * power.KW, FlexPower: 8 * power.KW},
		)
	}
	return racks
}

// testRoomConfig assembles a RoomConfig with its own actuator.
func testRoomConfig(t *testing.T, name string, clk clock.Clock) RoomConfig {
	t.Helper()
	topo := testTopo(t)
	racks := testRacks(name, topo)
	ids := make([]string, len(racks))
	for i, r := range racks {
		ids[i] = r.ID
	}
	return RoomConfig{
		Name:        name,
		Topo:        topo,
		Racks:       racks,
		Actuator:    rackmgr.NewManager(clk, ids),
		Scenario:    impact.Realistic1(),
		Stranded:    5 * power.KW,
		Allocatable: 300 * power.KW,
	}
}

// feed publishes a full telemetry round for the shard's room: the given
// per-UPS powers plus every rack at its allocated draw.
func feed(s *Shard, rc RoomConfig, at time.Time, ups []power.Watts) {
	batch := make([]telemetry.Sample, len(ups))
	for u := range ups {
		batch[u] = telemetry.Sample{
			Device: rc.Topo.UPSes[u].Name, Power: ups[u], Valid: true, MeasuredAt: at,
		}
	}
	s.IngestUPS(batch)
	rb := make([]telemetry.Sample, len(rc.Racks))
	for i, r := range rc.Racks {
		rb[i] = telemetry.Sample{Device: r.ID, Power: r.Allocated, Valid: true, MeasuredAt: at}
	}
	s.IngestRacks(rb)
}

func TestAddRoomValidation(t *testing.T) {
	clk := clock.NewVirtual(t0())
	f := New(Config{Clock: clk})
	rc := testRoomConfig(t, "room-1", clk)
	if _, err := f.AddRoom(rc); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddRoom(rc); err == nil {
		t.Fatal("duplicate room accepted")
	}
	if _, err := f.AddRoom(RoomConfig{Topo: rc.Topo}); err == nil {
		t.Fatal("nameless room accepted")
	}
	if _, err := f.AddRoom(RoomConfig{Name: "room-2"}); err == nil {
		t.Fatal("topology-less room accepted")
	}
	if got := f.shards; len(got) != 1 || got[0].Name != "room-1" {
		t.Fatalf("shards = %v, want [room-1]", got)
	}
	if f.Shard("room-1") == nil || f.Shard("nope") != nil {
		t.Fatal("Shard lookup wrong")
	}
}

// TestAddRoomRefusesBatchLargerThanQueue: a poll round that does not fit
// the ingest queue would evict its own first samples on every ingest, so
// the same devices would never reach the view. AddRoom must refuse the
// room and name both numbers.
func TestAddRoomRefusesBatchLargerThanQueue(t *testing.T) {
	clk := clock.NewVirtual(t0())
	rc := testRoomConfig(t, "room-wide", clk)
	for len(rc.Racks) < 70 {
		r := rc.Racks[len(rc.Racks)%12]
		r.ID = fmt.Sprintf("%s-%d", r.ID, len(rc.Racks))
		rc.Racks = append(rc.Racks, r)
	}
	_, err := New(Config{Clock: clk, QueueDepth: 64}).AddRoom(rc)
	if err == nil || !strings.Contains(err.Error(), "70 racks") || !strings.Contains(err.Error(), "depth 64") {
		t.Fatalf("70 racks at QueueDepth 64: err = %v, want one naming both numbers", err)
	}
	narrow := testRoomConfig(t, "room-narrow", clk)
	narrow.Racks = narrow.Racks[:2]
	_, err = New(Config{Clock: clk, QueueDepth: 3}).AddRoom(narrow)
	if err == nil || !strings.Contains(err.Error(), "4 UPSes") || !strings.Contains(err.Error(), "depth 3") {
		t.Fatalf("4 UPSes at QueueDepth 3: err = %v, want one naming both numbers", err)
	}
	if _, err := New(Config{Clock: clk, QueueDepth: 70}).AddRoom(rc); err != nil {
		t.Fatalf("70 racks at QueueDepth 70: %v", err)
	}
}

func TestIngestRoutesToOwnShardOnly(t *testing.T) {
	clk := clock.NewVirtual(t0())
	f := New(Config{Clock: clk})
	rcA := testRoomConfig(t, "room-a", clk)
	rcB := testRoomConfig(t, "room-b", clk)
	a, _ := f.AddRoom(rcA)
	b, _ := f.AddRoom(rcB)

	a.IngestUPS([]telemetry.Sample{
		{Device: rcA.Topo.UPSes[0].Name, Power: 50 * power.KW, Valid: true, MeasuredAt: clk.Now()},
	})
	if n := a.Pump(); n != 1 {
		t.Fatalf("room-a pumped %d, want 1", n)
	}
	if n := b.Pump(); n != 0 {
		t.Fatalf("room-b pumped %d, want 0 (cross-shard leak)", n)
	}
	if _, _, ok := a.upsView.Get(rcA.Topo.UPSes[0].Name); !ok {
		t.Fatal("sample did not reach room-a view")
	}
}

func TestShardShedsOnOverdraw(t *testing.T) {
	clk := clock.NewVirtual(t0())
	f := New(Config{Clock: clk})
	rc := testRoomConfig(t, "room-1", clk)
	s, err := f.AddRoom(rc)
	if err != nil {
		t.Fatal(err)
	}
	// UPS 0 failed (0W → inferred inactive); survivors at 120kW, 20kW over
	// their 100kW rating.
	clk.Advance(time.Second)
	feed(s, rc, clk.Now(), []power.Watts{0, 120 * power.KW, 120 * power.KW, 120 * power.KW})
	if n := s.Pump(); n == 0 {
		t.Fatal("pump moved nothing")
	}
	overdraw, enforced, _ := s.StepContext(context.Background())
	if !overdraw {
		t.Fatal("overdraw not detected")
	}
	if enforced == 0 {
		t.Fatal("no corrective actions enforced")
	}
	headroom, acted := s.committedHeadroom()
	if headroom <= 0 || acted == 0 {
		t.Fatalf("committed headroom %v over %d racks, want > 0", headroom, acted)
	}
}

// TestCommittedHeadroomBitStable: two primaries holding the same few dozen
// actions, none of whose recovered powers is a short binary fraction, must
// fold to the same float every time — the sum runs in rack order, not in
// the order a map happens to hand the racks out.
func TestCommittedHeadroomBitStable(t *testing.T) {
	clk := clock.NewVirtual(t0())
	f := New(Config{Clock: clk})
	topo := testTopo(t)
	var racks []controller.ManagedRack
	var ids []string
	for _, p := range topo.Pairs {
		for k := 0; k < 8; k++ {
			id := fmt.Sprintf("sr-%d-%d", p.ID, k)
			ids = append(ids, id)
			racks = append(racks, controller.ManagedRack{ID: id, Workload: "websearch",
				Category: workload.SoftwareRedundant, Pair: p.ID, Allocated: 6 * power.KW})
		}
	}
	s, err := f.AddRoom(RoomConfig{
		Name: "room-1", Topo: topo, Racks: racks, Actuator: rackmgr.NewManager(clk, ids),
		Scenario: impact.Realistic1(), Controllers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	now := clk.Now()
	var batch []telemetry.Sample
	for u, w := range []power.Watts{0, 160 * power.KW, 160 * power.KW, 160 * power.KW} {
		batch = append(batch, telemetry.Sample{Device: topo.UPSes[u].Name, Power: w, Valid: true, MeasuredAt: now})
	}
	s.IngestUPS(batch)
	batch = batch[:0]
	for i, r := range racks {
		batch = append(batch, telemetry.Sample{Device: r.ID, Power: power.Watts(4100.1 + 37.7*float64(i)), Valid: true, MeasuredAt: now})
	}
	s.IngestRacks(batch)
	s.Pump()
	s.StepContext(context.Background())

	patterns := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		watts, acted := s.committedHeadroom()
		if acted < 30 {
			t.Fatalf("%d racks acted on, want at least 30 for the sum's order to matter", acted)
		}
		patterns[math.Float64bits(watts)] = true
	}
	if len(patterns) != 1 {
		t.Fatalf("50 folds of the same committed actions gave %d different bit patterns", len(patterns))
	}
}

func TestAggregateSumsAndHealth(t *testing.T) {
	clk := clock.NewVirtual(t0())
	reg := obs.NewRegistry()
	f := New(Config{Clock: clk, Obs: reg})
	rcA := testRoomConfig(t, "room-a", clk)
	rcB := testRoomConfig(t, "room-b", clk)
	rcB.Stranded = 7 * power.KW
	a, _ := f.AddRoom(rcA)
	b, _ := f.AddRoom(rcB)

	clk.Advance(time.Second)
	feed(a, rcA, clk.Now(), []power.Watts{50 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW})
	a.Pump()
	// room-b gets no telemetry: it must report degraded, and the fleet
	// verdict must be the worst shard.
	snap := f.AggregateOnce(clk.Now())
	if snap.StrandedPower != 12*power.KW {
		t.Fatalf("fleet stranded = %v, want 12kW (5+7)", snap.StrandedPower)
	}
	if snap.AllocatablePower != 600*power.KW {
		t.Fatalf("fleet allocatable = %v, want 600kW", snap.AllocatablePower)
	}
	if snap.Ready != 1 {
		t.Fatalf("ready = %d, want 1", snap.Ready)
	}
	if snap.State != slo.StateDegraded {
		t.Fatalf("fleet state = %v, want degraded (room-b has no telemetry)", snap.State)
	}
	var aSt, bSt *RoomStatus
	for i := range snap.Rooms {
		switch snap.Rooms[i].Name {
		case "room-a":
			aSt = &snap.Rooms[i]
		case "room-b":
			bSt = &snap.Rooms[i]
		}
	}
	if aSt == nil || aSt.State != slo.StateReady {
		t.Fatalf("room-a status = %+v, want ready", aSt)
	}
	if bSt == nil || bSt.State != slo.StateDegraded {
		t.Fatalf("room-b status = %+v, want degraded", bSt)
	}
	_ = b
	// Metrics exported on the fold.
	if got := f.metrics.StrandedWatts.Value(); got != float64(12*power.KW) {
		t.Fatalf("flex_fleet_stranded_watts = %v, want 12000", got)
	}
	if got := f.metrics.RoomState.With("room-b").Value(); got != float64(slo.StateDegraded) {
		t.Fatalf("room-b state gauge = %v, want degraded", got)
	}
}

func TestStaleTelemetryDegradesRoom(t *testing.T) {
	clk := clock.NewVirtual(t0())
	f := New(Config{Clock: clk})
	rc := testRoomConfig(t, "room-1", clk)
	s, _ := f.AddRoom(rc)
	clk.Advance(time.Second)
	feed(s, rc, clk.Now(), []power.Watts{50 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW})
	s.Pump()
	clk.Advance(20 * time.Second)
	snap := f.AggregateOnce(clk.Now())
	if snap.Rooms[0].State != slo.StateDegraded {
		t.Fatalf("room state = %v after 20s telemetry silence, want degraded", snap.Rooms[0].State)
	}
}

func TestShardIsolationUnderSaturation(t *testing.T) {
	clk := clock.NewVirtual(t0())
	f := New(Config{Clock: clk, QueueDepth: 64})
	rcHot := testRoomConfig(t, "room-hot", clk)
	rcCold := testRoomConfig(t, "room-cold", clk)
	hot, _ := f.AddRoom(rcHot)
	cold, _ := f.AddRoom(rcCold)

	clk.Advance(time.Second)
	// Saturate room-hot: 100 full UPS rounds against a 64-deep queue with
	// no pump draining it.
	for i := 0; i < 100; i++ {
		feed(hot, rcHot, clk.Now(), []power.Watts{50 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW})
	}
	if hot.Dropped() == 0 {
		t.Fatal("saturated shard dropped nothing; backpressure not engaged")
	}
	// Concurrently, room-cold has a UPS failure. Its queue, views, and
	// controller share nothing with room-hot's.
	feed(cold, rcCold, clk.Now(), []power.Watts{0, 120 * power.KW, 120 * power.KW, 120 * power.KW})
	cold.Pump()
	overdraw, enforced, _ := cold.StepContext(context.Background())
	if !overdraw || enforced == 0 {
		t.Fatalf("cold shard overdraw=%v enforced=%d under neighbor saturation, want detection and action",
			overdraw, enforced)
	}
	if cold.Dropped() != 0 {
		t.Fatalf("cold shard dropped %d samples, want 0", cold.Dropped())
	}
}

func TestPumpDrainsPollWhole(t *testing.T) {
	clk := clock.NewVirtual(t0())
	rc := testRoomConfig(t, "room-wide", clk)
	for len(rc.Racks) < 275 {
		r := rc.Racks[len(rc.Racks)%12]
		r.ID = fmt.Sprintf("%s-%d", r.ID, len(rc.Racks))
		rc.Racks = append(rc.Racks, r)
	}
	poll := make([]telemetry.Sample, len(rc.Racks))
	for i, r := range rc.Racks {
		poll[i] = telemetry.Sample{Device: r.ID, Power: r.Allocated, Valid: true, MeasuredAt: clk.Now(), PublishedAt: clk.Now()}
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	got, bound := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for try := 0; try < 5; try++ {
		s, err := New(Config{Clock: clk}).AddRoom(rc)
		if err != nil {
			t.Fatal(err)
		}
		s.IngestRacks(poll)
		clk.Advance(300 * time.Millisecond)
		dequeuedAt := clk.Now()
		var pumped int
		got = min(got, allocated(func() { pumped = s.Pump() }))
		bound = min(bound, allocated(func() { telemetry.NewLatestPower().UpdateBatch(poll, dequeuedAt) }))
		if pumped != len(poll) {
			t.Fatalf("Pump moved %d samples, want the poll's %d", pumped, len(poll))
		}
		for _, r := range rc.Racks {
			st, ok := s.rackView.GetStamps(r.ID)
			if !ok || !st.DequeuedAt.Equal(dequeuedAt) || !st.PublishedAt.Equal(t0()) {
				t.Fatalf("%s: stamps %+v (ok %v), want published at %v and dequeued at the Pump's %v", r.ID, st, ok, t0(), dequeuedAt)
			}
		}
	}
	if got > bound {
		t.Errorf("the first Pump allocated %d B, more than the %d B of one 275-slot array and one index sized for 275", got, bound)
	}
}

// TestRoomFootprint pins the bytes a 275-rack room costs to add: its rack
// manager and one AddRoom (the shard's subscriptions and views, before any
// traffic, and its controller). The mean over 20 rooms, the least of three
// tries since the count is process-wide, must stay within 5 % of the
// measured figure: a second copy of the queue or of the rack index creeping
// back into a room fails it.
func TestRoomFootprint(t *testing.T) {
	const rooms, measured uint64 = 20, 22420
	clk := clock.NewVirtual(t0())
	rc := testRoomConfig(t, "room", clk)
	for len(rc.Racks) < 275 {
		r := rc.Racks[len(rc.Racks)%12]
		r.ID = fmt.Sprintf("%s-%d", r.ID, len(rc.Racks))
		rc.Racks = append(rc.Racks, r)
	}
	ids := make([]string, len(rc.Racks))
	for i, r := range rc.Racks {
		ids[i] = r.ID
	}
	names := make([]string, rooms)
	for i := range names {
		names[i] = fmt.Sprintf("room-%d", i)
	}
	perRoom := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		f := New(Config{Clock: clk})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, name := range names {
			rc := rc
			rc.Name = name
			rc.Actuator = rackmgr.NewManager(clk, ids)
			if _, err := f.AddRoom(rc); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRoom = min(perRoom, (after.TotalAlloc-before.TotalAlloc)/rooms)
	}
	t.Logf("%d B per room", perRoom)
	if limit := measured * 105 / 100; perRoom > limit {
		t.Errorf("adding a 275-rack room allocates %d B, over %d B (%d B measured + 5 %%)", perRoom, limit, measured)
	}
}
