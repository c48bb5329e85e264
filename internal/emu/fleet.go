package emu

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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
}

// fleetHook, when set, sees RunFleet's live fleet after every room is added
// and before the first tick: tests read the fleet's tracer through it.
var fleetHook func(*fleet.Fleet)

// fleetUtilization is every room's steady-state aggregate utilization.
const fleetUtilization = 0.80

func (c *FleetConfig) fillDefaults() {
	if c.Rooms == 0 {
		c.Rooms = 10
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
	// Outage reports whether a loaded PDU-pair in any room lost both of
	// its UPSes, what CascadeOutcome.Outage means.
	Outage bool
	// CrossRoomDrops counts evictions in every *other* room — the
	// isolation criterion demands 0.
	CrossRoomDrops int
	// PerRoomStranded is each room's placement Eq. 5 stranded power (the
	// rooms are identical).
	PerRoomStranded power.Watts
	// Snapshot is the fleet aggregate after the final tick.
	Snapshot fleet.Snapshot
	// Episodes are the stitched per-episode stage waterfalls (newest
	// first).
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

// addRoom stands a new room of the plant on the run's clock behind a
// shard of fl configured by rc, whose Actuator becomes the room's manager.
func (ts *tickState) addRoom(fl *fleet.Fleet, rc fleet.RoomConfig) (*shardRoom, error) {
	p, rm := ts.plant, ts.newRoom()
	rc.Actuator = rm.mgr
	shard, err := fl.AddRoom(rc)
	if err != nil {
		return nil, err
	}
	sr := &shardRoom{
		room: rm, shard: shard,
		upsBatch:  make([]telemetry.Sample, len(p.topo.UPSes)),
		rackBatch: make([]telemetry.Sample, len(p.ids)),
	}
	for u := range sr.upsBatch {
		sr.upsBatch[u] = telemetry.Sample{Device: p.topo.UPSes[u].Name, Valid: true}
	}
	for j := range sr.rackBatch {
		sr.rackBatch[j] = telemetry.Sample{Device: p.ids[j], Valid: true}
	}
	return sr, nil
}

// fill writes one poll's readings, taken and published at wall, into batch.
func fill(batch []telemetry.Sample, readings []power.Watts, wall time.Time) {
	for i := range batch {
		s := &batch[i]
		s.Power, s.MeasuredAt, s.PublishedAt = readings[i], wall, wall
	}
}

// phase is one of a fleet tick's room-local phases: each writes only its
// own room (its demand, truth, batches, shard queues and views), so the
// rooms run it side by side.
type phase int

const (
	// phasePoll advances the demand and, on a poll tick, refreshes the
	// truth and fills the room's batches from it.
	phasePoll phase = iota
	// phasePump drains the shard's queues into its views.
	phasePump
	// phaseObserve is room.observe on the post-step world.
	phaseObserve
)

// fleetTick is what the phases read of the tick: written by the loop
// between phases, read-only while one runs.
type fleetTick struct {
	target             float64
	z                  []float64 // the tick's normals, room-major
	wall               time.Time
	pollUPS, pollRacks bool
}

// crew runs a tick's phases over every core: the rooms split into
// min(GOMAXPROCS, rooms) contiguous chunks, the first run by the loop's
// own goroutine and each other by a worker started once a run. A phase
// returns when every chunk has finished it, so it is a barrier; with one
// chunk there is no worker and the loop runs the phase inline.
type crew struct {
	ts     *tickState
	rooms  []*shardRoom
	tick   fleetTick
	chunks []int        // chunk k is rooms[chunks[k]:chunks[k+1]]
	start  []chan phase // one per worker; closed by stop
	done   sync.WaitGroup
	exited sync.WaitGroup
}

func newCrew(ts *tickState, rooms []*shardRoom) *crew {
	n := min(runtime.GOMAXPROCS(0), len(rooms))
	c := &crew{ts: ts, rooms: rooms, chunks: make([]int, n+1), start: make([]chan phase, n-1)}
	for k := range c.chunks {
		c.chunks[k] = k * len(rooms) / n
	}
	c.exited.Add(len(c.start))
	for k := range c.start {
		c.start[k] = make(chan phase, 1)
		go c.work(k+1, c.start[k])
	}
	return c
}

func (c *crew) work(k int, start <-chan phase) {
	defer c.exited.Done()
	for ph := range start {
		c.runChunk(k, ph)
		c.done.Done()
	}
}

// run runs ph on every room and returns when all have.
func (c *crew) run(ph phase) {
	c.done.Add(len(c.start))
	for _, start := range c.start {
		start <- ph
	}
	c.runChunk(0, ph)
	c.done.Wait()
}

// stop ends the workers and waits until they have.
func (c *crew) stop() {
	for _, start := range c.start {
		close(start)
	}
	c.exited.Wait()
}

// runChunk runs ph on chunk k's rooms, in room order.
func (c *crew) runChunk(k int, ph phase) {
	t, ts := &c.tick, c.ts
	for i := c.chunks[k]; i < c.chunks[k+1]; i++ {
		sr := c.rooms[i]
		switch ph {
		case phasePoll:
			n := len(sr.demand)
			ts.advance(sr.room, t.target, t.z[i*n:(i+1)*n])
			if t.pollUPS || t.pollRacks {
				sr.refresh()
			}
			if t.pollUPS {
				fill(sr.upsBatch, sr.truth.ups, t.wall)
			}
			if t.pollRacks {
				fill(sr.rackBatch, sr.truth.rack, t.wall)
			}
		case phasePump:
			sr.shard.Pump()
		case phaseObserve:
			sr.observe(ts.step)
		}
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
	p, err := newPlant(ctx, cfg.TraceSeed, fleetUtilization, cfg.Obs)
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
		Name:     "emu-fleet",
		Clock:    ts.clk,
		Obs:      obsReg,
		Recorder: cfg.Recorder,
	})
	rc := fleet.RoomConfig{
		Topo:        topo,
		Racks:       p.managed,
		Scenario:    impact.Realistic1(),
		Controllers: cfg.Controllers,
		Stranded:    p.stranded,
		Allocatable: p.room.AllocatablePower(),
	}
	rooms := make([]*shardRoom, cfg.Rooms)
	for i := range rooms {
		rc.Name = fmt.Sprintf("room-%03d", i)
		if rooms[i], err = ts.addRoom(fl, rc); err != nil {
			return nil, err
		}
	}
	if fleetHook != nil {
		fleetHook(fl)
	}

	// Setup ramp: demand climbs for the first quarter of the pre-failure
	// window, then holds at the target.
	ramp := cfg.FailAt / 2

	stop := ts.drawAhead(len(rooms) * len(p.ids))
	defer stop()
	c := newCrew(ts, rooms)
	defer c.stop()
	t := &c.tick
	for ; ts.i <= ts.last; ts.next() {
		t.target = fleetUtilization
		if ts.now < ramp {
			t.target = fleetUtilization * (0.5 + 0.5*ts.now.Seconds()/ramp.Seconds())
		}
		if ts.reaches(cfg.FailAt) {
			ts.fail(rooms[cfg.FailRoom].room, cfg.FailUPS)
		}

		// Demand, and telemetry on the paper's cadences batched per room.
		t.z, t.wall = ts.normals(), ts.clk.Now()
		t.pollUPS, t.pollRacks = ts.polls()
		c.run(phasePoll)
		// Ingest stays serial and in room order: every room publishes
		// through the fleet's one broker, and a flooded room's sample-drop
		// events take recorder seqs.
		if t.pollUPS {
			for _, sr := range rooms {
				sr.shard.IngestUPS(sr.upsBatch)
			}
		}
		if t.pollRacks {
			for ri, sr := range rooms {
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

		// Every shard pumps, then steps, on the shared clock. A pump reads
		// nothing a sibling's step writes, so all pumps run side by side;
		// the steps stay serial and in room order, which keeps the order of
		// recorder events and of the fleet tracer's and stage histograms'
		// writes.
		c.run(phasePump)
		for _, sr := range rooms {
			_, enforced, _ := sr.shard.StepContext(ctx)
			ts.enforced(sr.room, enforced)
		}
		c.run(phaseObserve)
		for _, sr := range rooms {
			ts.settle(sr.room)
		}
	}

	res := &FleetResult{
		Rooms: cfg.Rooms, PerRoomStranded: p.stranded,
		DetectLatency: ts.firstEnforce, ShedLatency: ts.shedAt, Outage: ts.outage,
	}
	for ri, sr := range rooms {
		if cfg.SaturateFactor == 0 || ri != cfg.SaturateRoom {
			res.CrossRoomDrops += sr.shard.Dropped()
		}
	}
	res.Snapshot = fl.AggregateOnce(ts.clk.Now())
	res.Episodes = fl.EpisodeTraces(0)
	res.Stages = fl.StageSummaries()
	return res, nil
}
