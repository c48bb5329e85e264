package emu

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flex/internal/clock"
	"flex/internal/fleet"
	"flex/internal/impact"
	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/sim"
	"flex/internal/telemetry"
	"flex/internal/workload"
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

// fleetRoom is one room's live emulation state.
type fleetRoom struct {
	shard     *fleet.Shard
	sims      []*rackSim
	truth     *groundTruth
	inactive  power.UPSSet
	upsBatch  []telemetry.Sample
	rackBatch []telemetry.Sample
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
	if cfg.FailRoom < 0 || cfg.FailRoom >= cfg.Rooms {
		return nil, fmt.Errorf("emu: FailRoom %d out of range [0,%d)", cfg.FailRoom, cfg.Rooms)
	}

	// Solve the placement once; the fleet replicates one paper room N
	// times. (A real fleet solves per room; the emulation measures the
	// online layer, not the solver.)
	room := placement.EmulationRoom()
	topo := room.Topo
	tcfg := workload.DefaultTraceConfig(topo.ProvisionedPower())
	tcfg.WorkloadsPerCategory = 1
	tcfg.FlexPowerMin, tcfg.FlexPowerMax = 0.845, 0.855
	trace, err := workload.GenerateTrace(tcfg, rand.New(rand.NewSource(cfg.TraceSeed)))
	if err != nil {
		return nil, err
	}
	var solverMetrics *milp.Metrics
	if cfg.Obs != nil {
		solverMetrics = milp.NewMetrics(cfg.Obs)
	}
	pl, err := placement.FlexOffline{BatchFraction: 0.33, MaxNodes: 150, SolverMetrics: solverMetrics}.Place(ctx, room, trace)
	if err != nil {
		return nil, err
	}
	protoRacks := sim.ExpandRacks(pl)
	if len(protoRacks) == 0 {
		return nil, fmt.Errorf("emu: nothing placed")
	}
	managed := sim.ManagedRacks(protoRacks)
	stranded := pl.StrandedPower()

	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewVirtual(start)
	rng := rand.New(rand.NewSource(cfg.Seed))

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
		Clock:      clk,
		QueueDepth: cfg.QueueDepth,
		Obs:        obsReg,
		Recorder:   cfg.Recorder,
	})

	// Demand normalization, as in the single-room run.
	ratio := map[workload.Category]float64{
		workload.SoftwareRedundant:      0.90 / 0.80,
		workload.NonRedundantCapable:    0.83 / 0.80,
		workload.NonRedundantNonCapable: 0.67 / 0.80,
	}
	var weighted float64
	for _, r := range protoRacks {
		weighted += ratio[r.Category] * float64(r.Allocated)
	}
	norm := cfg.Utilization * float64(topo.ProvisionedPower()) / weighted
	for c := range ratio {
		ratio[c] *= norm
	}

	ids := make([]string, len(protoRacks))
	for i, r := range protoRacks {
		ids[i] = r.ID
	}
	sc := impact.Realistic1()
	rooms := make([]*fleetRoom, cfg.Rooms)
	for i := range rooms {
		name := fmt.Sprintf("room-%03d", i)
		mgr := rackmgr.NewManager(clk, ids)
		shard, err := fl.AddRoom(fleet.RoomConfig{
			Name:        name,
			Topo:        topo,
			Racks:       managed,
			Actuator:    mgr,
			Scenario:    sc,
			Controllers: cfg.Controllers,
			Stranded:    stranded,
			Allocatable: room.AllocatablePower(),
			Interval:    cfg.Tick,
		})
		if err != nil {
			return nil, err
		}
		fr := &fleetRoom{
			shard:     shard,
			sims:      make([]*rackSim, len(protoRacks)),
			upsBatch:  make([]telemetry.Sample, 0, len(topo.UPSes)),
			rackBatch: make([]telemetry.Sample, 0, len(protoRacks)),
		}
		for j, r := range protoRacks {
			fr.sims[j] = &rackSim{Rack: r, demand: 0.2}
		}
		fr.truth = newGroundTruth(topo, mgr, fr.sims)
		rooms[i] = fr
	}
	if cfg.Attach != nil {
		cfg.Attach(fl)
	}

	res := &FleetResult{Rooms: cfg.Rooms, PerRoomStranded: stranded}
	firstEnforce := time.Duration(-1)
	shavedAt := time.Duration(-1)

	ticks := int(cfg.Duration / cfg.Tick)
	upsTick := int((1500 * time.Millisecond) / cfg.Tick)
	rackTick := int((2 * time.Second) / cfg.Tick)
	if upsTick < 1 {
		upsTick = 1
	}
	if rackTick < 1 {
		rackTick = 1
	}
	// Setup ramp: demand climbs for the first quarter of the pre-failure
	// window, then holds at the target.
	ramp := cfg.FailAt / 2
	dt := cfg.Tick.Seconds()

	for i := 0; i <= ticks; i++ {
		now := time.Duration(i) * cfg.Tick
		target := cfg.Utilization
		if now < ramp {
			target = cfg.Utilization * (0.5 + 0.5*now.Seconds()/ramp.Seconds())
		}

		if now == cfg.FailAt {
			rooms[cfg.FailRoom].inactive |= power.SetOf(cfg.FailUPS)
		}

		// Workload dynamics, every room.
		for _, fr := range rooms {
			for _, rs := range fr.sims {
				catTarget := target / cfg.Utilization * ratio[rs.Category]
				if catTarget > 1 {
					catTarget = 1
				}
				theta, sigma := 0.30, 0.015
				rs.demand += theta*(catTarget-rs.demand)*dt + sigma*rng.NormFloat64()*dt
				if rs.demand < 0.1 {
					rs.demand = 0.1
				}
				if rs.demand > 1 {
					rs.demand = 1
				}
			}
		}

		// Telemetry on the paper's cadences, batched per room: a tick that
		// polls reads this tick's demand under the actuation state the last
		// tick left.
		wall := clk.Now()
		if i%upsTick == 0 || i%rackTick == 0 {
			for _, fr := range rooms {
				fr.truth.refresh(fr.inactive)
			}
		}
		if i%upsTick == 0 {
			for _, fr := range rooms {
				fr.upsBatch = fr.upsBatch[:0]
				for u := range topo.UPSes {
					fr.upsBatch = append(fr.upsBatch, telemetry.Sample{
						Device: topo.UPSes[u].Name, Power: fr.truth.ups[u], Valid: true,
						MeasuredAt: wall, PublishedAt: wall,
					})
				}
				fr.shard.IngestUPS(fr.upsBatch)
			}
		}
		if i%rackTick == 0 {
			for ri, fr := range rooms {
				fr.rackBatch = fr.rackBatch[:0]
				for j, rs := range fr.sims {
					fr.rackBatch = append(fr.rackBatch, telemetry.Sample{
						Device: rs.ID, Power: fr.truth.rack[j], Valid: true,
						MeasuredAt: wall, PublishedAt: wall,
					})
				}
				fr.shard.IngestRacks(fr.rackBatch)
				if cfg.SaturateFactor > 0 && ri == cfg.SaturateRoom {
					// Backpressure stress: flood the queue with redundant
					// copies; drop-oldest must absorb it here and nowhere
					// else.
					for k := 0; k < cfg.SaturateFactor; k++ {
						fr.shard.IngestRacks(fr.rackBatch)
					}
				}
			}
		}

		// Every shard pumps and steps on the shared clock. (The emulation
		// drives shards synchronously for determinism; live deployments
		// run Shard.Start loops — same pump/step path.)
		for ri, fr := range rooms {
			fr.shard.Pump()
			_, enforced, _ := fr.shard.StepContext(ctx)
			if ri == cfg.FailRoom && enforced > 0 && firstEnforce < 0 && now >= cfg.FailAt {
				firstEnforce = now - cfg.FailAt
			}
		}

		// Trip-curve safety in every room, on the post-step world; shed
		// point for the failed one.
		for ri, fr := range rooms {
			fr.truth.refresh(fr.inactive)
			allUnder, tripped := fr.truth.observeTrip(fr.inactive, cfg.Tick)
			if tripped {
				res.Outage = true
			}
			if ri == cfg.FailRoom && now > cfg.FailAt && shavedAt < 0 && allUnder {
				shavedAt = now - cfg.FailAt
			}
		}

		clk.Advance(cfg.Tick)
	}

	res.DetectLatency = firstEnforce
	res.ShedLatency = shavedAt
	for ri, fr := range rooms {
		if cfg.SaturateFactor > 0 && ri == cfg.SaturateRoom {
			res.SaturatedDrops = fr.shard.Dropped()
		} else {
			res.CrossRoomDrops += fr.shard.Dropped()
		}
	}
	res.Snapshot = fl.AggregateOnce(clk.Now())
	res.Episodes = fl.EpisodeTraces(0)
	res.Stages = fl.StageSummaries()
	return res, nil
}
