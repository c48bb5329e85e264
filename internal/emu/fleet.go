package emu

import (
	"context"
	"fmt"
	"time"

	"flex/internal/fleet"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
	"flex/internal/telemetry"
)

// FleetConfig drives RunFleet: N identical paper rooms on one virtual
// clock, each a fleet shard with its own controller and bounded ingest
// queue, plus the fleet aggregator. Zero values select a 10-room, 60s
// compressed timeline.
type FleetConfig struct {
	// Rooms is the number of UPS fault domains (default 10).
	Rooms int
	// Utilization is the steady-state aggregate utilization (default 0.80).
	Utilization float64
	// FailRoom is the room index whose UPS fails (default 0).
	FailRoom int
	// FailUPS is the UPS to fail inside FailRoom.
	FailUPS power.UPSID
	// FailAt and Duration stage the compressed timeline (defaults 20s /
	// 60s — the fleet run measures detect→shed, not the full Figure 13
	// recovery arc).
	FailAt, Duration time.Duration
	// Tick is the simulation step (default 500ms).
	Tick time.Duration
	// Controllers is the number of controller primaries per shard
	// (default 1).
	Controllers int
	// QueueDepth is the per-shard ingest buffer (default 1024).
	QueueDepth int
	// SaturateRoom and SaturateFactor, when SaturateFactor > 0, flood
	// SaturateRoom's rack ingest queue with SaturateFactor redundant
	// copies of every rack batch — the backpressure stress: the flooded
	// shard must drop (counted) while every other shard stays unaffected.
	// SaturateFactor 0 disables the flood.
	SaturateRoom   int
	SaturateFactor int
	// Seed drives workload dynamics.
	Seed int64
	// TraceSeed drives the placed demand trace.
	TraceSeed int64
	// Obs, when non-nil, instruments the run; fleet metrics, controller
	// metrics, and ingest drop counters all register here. When nil the
	// run still instruments itself on a private registry so the latency
	// waterfalls (Episodes, Stages) are always produced.
	Obs *obs.Registry
	// Recorder, when non-nil, wires the flight recorder through the
	// fleet: controllers allocate episode ids and emit causal chains, so
	// stage exemplars and trace roots resolve to recorder events.
	Recorder *recorder.Recorder
	// Attach, when non-nil, is called with the live fleet after every
	// room is added and before the first tick — the hook flexsim uses to
	// mount /fleet and /fleet/traces while the emulation runs.
	Attach func(*fleet.Fleet)
}

func (c *FleetConfig) fillDefaults() {
	if c.Rooms == 0 {
		c.Rooms = 10
	}
	if c.Utilization == 0 {
		c.Utilization = 0.80
	}
	if c.FailAt == 0 {
		c.FailAt = 20 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.Tick == 0 {
		c.Tick = 500 * time.Millisecond
	}
	if c.Controllers == 0 {
		c.Controllers = 1
	}
	if c.TraceSeed == 0 {
		c.TraceSeed = 9
	}
}

// FleetResult summarizes a fleet run.
type FleetResult struct {
	Rooms int
	// DetectLatency is from the UPS failure to the failed room's first
	// enforced corrective action.
	DetectLatency time.Duration
	// ShedLatency is from the UPS failure until every surviving UPS in
	// the failed room is back below rated capacity (the 10s budget).
	ShedLatency time.Duration
	// Outage reports whether any UPS in any room outlasted its trip-curve
	// tolerance.
	Outage bool
	// SaturatedDrops counts ingest-queue evictions in the saturated room
	// (0 when no room was saturated).
	SaturatedDrops int
	// CrossRoomDrops counts evictions in every *other* room — the
	// isolation criterion demands 0.
	CrossRoomDrops int
	// PerRoomStranded is each room's placement Eq. 5 stranded power (the
	// rooms are identical).
	PerRoomStranded power.Watts
	// Snapshot is the fleet aggregate after the final tick.
	Snapshot fleet.Snapshot
	// Episodes are the stitched per-episode stage waterfalls (newest
	// first) — what /fleet/traces serves on a live fleet.
	Episodes []fleet.EpisodeTrace
	// Stages digests the fleet's per-stage latency histograms.
	Stages []fleet.StageSummary
}

// shardRoom is a room behind its fleet shard, with one batch per poll:
// device and validity are written once, a poll fills in power and time.
type shardRoom struct {
	*room
	shard     *fleet.Shard
	upsBatch  []telemetry.Sample
	rackBatch []telemetry.Sample
}

// fill writes one poll's readings, taken and published at wall, into batch.
func fill(batch []telemetry.Sample, readings []power.Watts, wall time.Time) {
	for i := range batch {
		s := &batch[i]
		s.Power, s.MeasuredAt, s.PublishedAt = readings[i], wall, wall
	}
}

// RunFleet executes the multi-room emulation: one Flex-Offline placement
// solved once and replicated across cfg.Rooms shards, telemetry batched
// into per-shard queues on the paper's cadences, every shard pumped and
// stepped each tick of one shared virtual clock, and a UPS failure
// injected into one room. The failed room must detect and shed inside the
// 10s FlexLatencyBudget regardless of how many rooms ride alongside — and
// regardless of a neighbor's queue being saturated.
func RunFleet(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	cfg.fillDefaults()
	p, err := newPlant(ctx, cfg.TraceSeed, cfg.Utilization, cfg.Obs)
	if err != nil {
		return nil, err
	}
	topo := p.topo
	checks := []indexCheck{{"FailRoom", cfg.FailRoom, cfg.Rooms}, {"FailUPS", int(cfg.FailUPS), len(topo.UPSes)}}
	if cfg.SaturateFactor > 0 {
		checks = append(checks, indexCheck{"SaturateRoom", cfg.SaturateRoom, cfg.Rooms})
	}
	if err := checkIndices(checks...); err != nil {
		return nil, err
	}
	ts := p.newTickState(cfg.Seed, cfg.Tick, cfg.Duration, 0.30, 0.015) // AR(1) θ, σ

	// Always instrument: the latency waterfalls (Episodes, Stages) come
	// from the fleet's tracer and stage histograms, which only exist with
	// a registry — fall back to a private one when the caller brought
	// none.
	obsReg := cfg.Obs
	if obsReg == nil {
		obsReg = obs.NewRegistry()
	}
	fl := fleet.New(fleet.Config{
		Name:       "emu-fleet",
		Clock:      ts.clk,
		QueueDepth: cfg.QueueDepth,
		Obs:        obsReg,
		Recorder:   cfg.Recorder,
	})
	sc := impact.Realistic1()
	rooms := make([]*shardRoom, cfg.Rooms)
	for i := range rooms {
		rm := ts.newRoom()
		shard, err := fl.AddRoom(fleet.RoomConfig{
			Name:        fmt.Sprintf("room-%03d", i),
			Topo:        topo,
			Racks:       p.managed,
			Actuator:    rm.mgr,
			Scenario:    sc,
			Controllers: cfg.Controllers,
			Stranded:    p.stranded,
			Allocatable: p.room.AllocatablePower(),
			Interval:    cfg.Tick,
		})
		if err != nil {
			return nil, err
		}
		sr := &shardRoom{
			room: rm, shard: shard,
			upsBatch:  make([]telemetry.Sample, len(topo.UPSes)),
			rackBatch: make([]telemetry.Sample, len(p.ids)),
		}
		for u := range sr.upsBatch {
			sr.upsBatch[u] = telemetry.Sample{Device: topo.UPSes[u].Name, Valid: true}
		}
		for j := range sr.rackBatch {
			sr.rackBatch[j] = telemetry.Sample{Device: p.ids[j], Valid: true}
		}
		rooms[i] = sr
	}
	if cfg.Attach != nil {
		cfg.Attach(fl)
	}

	// Setup ramp: demand climbs for the first quarter of the pre-failure
	// window, then holds at the target.
	ramp := cfg.FailAt / 2

	for ; ts.i <= ts.last; ts.next() {
		target := cfg.Utilization
		if ts.now < ramp {
			target = cfg.Utilization * (0.5 + 0.5*ts.now.Seconds()/ramp.Seconds())
		}
		if ts.reaches(cfg.FailAt) {
			ts.fail(rooms[cfg.FailRoom].room, cfg.FailUPS)
		}
		for _, sr := range rooms {
			ts.advance(sr.room, target)
		}

		// Telemetry on the paper's cadences, batched per room.
		wall := ts.clk.Now()
		pollUPS, pollRacks := ts.polls()
		if pollUPS || pollRacks {
			for _, sr := range rooms {
				sr.refresh()
			}
		}
		if pollUPS {
			for _, sr := range rooms {
				fill(sr.upsBatch, sr.truth.ups, wall)
				sr.shard.IngestUPS(sr.upsBatch)
			}
		}
		if pollRacks {
			for ri, sr := range rooms {
				fill(sr.rackBatch, sr.truth.rack, wall)
				sr.shard.IngestRacks(sr.rackBatch)
				if cfg.SaturateFactor > 0 && ri == cfg.SaturateRoom {
					// Backpressure stress: flood the queue with redundant
					// copies; drop-oldest must absorb it here and nowhere
					// else.
					for k := 0; k < cfg.SaturateFactor; k++ {
						sr.shard.IngestRacks(sr.rackBatch)
					}
				}
			}
		}

		// Every shard pumps and steps on the shared clock. (The emulation
		// drives shards synchronously for determinism; live deployments
		// run Shard.Start loops — same pump/step path.)
		for _, sr := range rooms {
			sr.shard.Pump()
			_, enforced, _ := sr.shard.StepContext(ctx)
			ts.enforced(sr.room, enforced)
		}
		for _, sr := range rooms {
			ts.settle(sr.room)
		}
	}

	res := &FleetResult{
		Rooms: cfg.Rooms, PerRoomStranded: p.stranded,
		DetectLatency: ts.firstEnforce, ShedLatency: ts.shedAt, Outage: ts.outage,
	}
	for ri, sr := range rooms {
		if cfg.SaturateFactor > 0 && ri == cfg.SaturateRoom {
			res.SaturatedDrops = sr.shard.Dropped()
		} else {
			res.CrossRoomDrops += sr.shard.Dropped()
		}
	}
	res.Snapshot = fl.AggregateOnce(ts.clk.Now())
	res.Episodes = fl.EpisodeTraces(0)
	res.Stages = fl.StageSummaries()
	return res, nil
}
