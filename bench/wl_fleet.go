package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"flex/internal/clock"
	"flex/internal/emu"
	"flex/internal/fleet"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/slo"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
)

// fleetWorkload is fleet-failover: emu.RunFleet as a black box, one
// operation per room.
type fleetWorkload struct {
	env
	plant *plant
}

var emuStart = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func (w *fleetWorkload) ticks() int {
	return int(w.sc.FleetDuration/(500*time.Millisecond)) + 1
}

// setup builds what RunFleet builds before its first tick — the placed
// room and a fleet with every room's shard — through the same public
// constructors.
func (w *fleetWorkload) setup(ctx context.Context) error {
	p, err := buildPlant(ctx)
	if err != nil {
		return err
	}
	w.plant = p
	_, _, err = newFleet(clock.NewVirtual(emuStart), p, w.sc.FleetRooms, nil)
	return err
}

func (w *fleetWorkload) inputs(d *digest) {
	d.add("rooms=%d duration=%v failAt=%v", w.sc.FleetRooms, w.sc.FleetDuration, w.sc.FleetFailAt)
	hashDeployments(d, w.plant.trace)
	for i := 0; i <= w.reps; i++ {
		d.add("dynamics %d", w.config(i).Seed)
	}
}

func (w *fleetWorkload) config(i int) emu.FleetConfig {
	return emu.FleetConfig{
		Rooms:     w.sc.FleetRooms,
		Duration:  w.sc.FleetDuration,
		FailAt:    w.sc.FleetFailAt,
		FailRoom:  0,
		FailUPS:   0,
		Seed:      subseed(w.seed, streamDynamics, i),
		TraceSeed: paperTraceSeed,
	}
}

func (w *fleetWorkload) rep(ctx context.Context, i int, res *result, fp *digest) (repStat, error) {
	cfg := w.config(i)
	var out *emu.FleetResult
	var err error
	st := repStat{ops: cfg.Rooms * w.ticks()}
	st.wall, st.alloc = timed(w.clk, func() { out, err = emu.RunFleet(ctx, cfg) })
	res.Attempted += cfg.Rooms
	if err != nil {
		res.fail(cfg.Rooms, "rep %d: RunFleet: %v", i, err)
		return st, nil
	}
	st.put("shed_virtual_s", out.ShedLatency.Seconds())
	st.put("detect_virtual_s", out.DetectLatency.Seconds())
	w.check(i, cfg, out, res)

	fp.add("shed=%v detect=%v outage=%v stranded=%.3f episodes=%d", out.ShedLatency, out.DetectLatency, out.Outage,
		float64(out.Snapshot.StrandedPower), len(out.Episodes))
	for _, r := range out.Snapshot.Rooms {
		fp.add("%s %v pumped=%d steps=%d acted=%d headroom=%.3f", r.Name, r.State, r.Pumped, r.Steps, r.ActedRacks, float64(r.CommittedHeadroom))
	}
	return st, nil
}

// check applies the operation rules: one operation per room.
func (w *fleetWorkload) check(i int, cfg emu.FleetConfig, out *emu.FleetResult, res *result) {
	if out.Outage {
		res.fail(cfg.Rooms, "rep %d: a UPS outlasted its trip curve", i)
		return
	}
	bad := map[int]string{}
	if out.ShedLatency <= 0 || out.ShedLatency > power.FlexLatencyBudget {
		bad[cfg.FailRoom] = fmt.Sprintf("shed latency %v outside (0, %v]", out.ShedLatency, power.FlexLatencyBudget)
	}
	if len(out.Snapshot.Rooms) != cfg.Rooms {
		res.fail(cfg.Rooms, "rep %d: snapshot has %d rooms, want %d", i, len(out.Snapshot.Rooms), cfg.Rooms)
		return
	}
	for ri, r := range out.Snapshot.Rooms {
		if r.State != slo.StateReady {
			bad[ri] = fmt.Sprintf("final state %v (%v)", r.State, r.Reasons)
		}
		if r.Dropped != 0 {
			bad[ri] = fmt.Sprintf("%d dropped samples", r.Dropped)
		}
	}
	// Eq. 5: the fleet total must be rooms times the stranded power of
	// the benchmark's own placement of the same trace.
	want := power.Watts(cfg.Rooms) * w.plant.pl.StrandedPower()
	if d := out.Snapshot.StrandedPower - want; d > 1 || d < -1 {
		res.fail(cfg.Rooms, "rep %d: fleet stranded %v, want %d x %v", i, out.Snapshot.StrandedPower, cfg.Rooms, w.plant.pl.StrandedPower())
		return
	}
	for ri, why := range bad {
		res.fail(1, "rep %d room %d: %s", i, ri, why)
	}
}

func (w *fleetWorkload) report(reps []repStat, res *result) { controlReport(reps, res) }

// controlReport is both control workloads' report: an operation's host
// cost is a room-tick, and the virtual latencies are the worst of the run.
func controlReport(reps []repStat, res *result) {
	res.Metrics["room_tick_us"] = res.Metrics["op_us"]
	if s := fold(reps, "shed_virtual_s"); len(s) > 0 {
		res.Metrics["shed_virtual_s"] = exact(slices.Max(s), "s")
		res.Metrics["detect_virtual_s"] = exact(slices.Max(fold(reps, "detect_virtual_s")), "s")
	}
}

// traced is the benchmark-owned stand-in for RunFleet's loop, walking the
// same hops through public API only, and checked against the black box:
// the same seed must shed in the same virtual time.
func (w *fleetWorkload) traced(ctx context.Context, i int, tr *tracer, res *result) (time.Duration, error) {
	cfg := w.config(i)
	start := w.clk.Now()
	got, err := driveFleet(ctx, w.plant, cfg, tr)
	wall := w.clk.Now().Sub(start)
	if err != nil {
		return wall, err
	}
	if tr == nil {
		return wall, nil // the spans-off twin; the traced pass has checked this repetition
	}
	res.Attempted += cfg.Rooms
	want, err := emu.RunFleet(ctx, cfg)
	if err != nil {
		return wall, err
	}
	if got.shed != want.ShedLatency || got.detect != want.DetectLatency || got.outage != want.Outage {
		res.fail(cfg.Rooms, "rep %d: traced driver shed/detect/outage %v/%v/%v, RunFleet %v/%v/%v",
			i, got.shed, got.detect, got.outage, want.ShedLatency, want.DetectLatency, want.Outage)
	}
	return wall, nil
}

type fleetRoom struct {
	shard     *fleet.Shard
	mgr       *rackmgr.Manager
	racks     []liveRack
	inactive  map[power.UPSID]bool
	watch     *tripWatch
	upsBatch  []telemetry.Sample
	rackBatch []telemetry.Sample
}

// newFleet assembles a fleet of identical rooms on vclk, as RunFleet does.
func newFleet(vclk *clock.Virtual, p *plant, rooms int, tr *tracer) (*fleet.Fleet, []*fleetRoom, error) {
	tr.begin("fleet.New")
	fl := fleet.New(fleet.Config{Name: "emu-fleet", Clock: vclk, Obs: obs.NewRegistry()})
	tr.end()
	sc := impact.Realistic1()
	out := make([]*fleetRoom, rooms)
	for i := range out {
		tr.begin("rackmgr.NewManager")
		mgr := rackmgr.NewManager(vclk, p.ids)
		tr.end()
		tr.begin("fleet.AddRoom")
		shard, err := fl.AddRoom(fleet.RoomConfig{
			Name:        fmt.Sprintf("room-%03d", i),
			Topo:        p.topo,
			Racks:       p.managed,
			Actuator:    mgr,
			Scenario:    sc,
			Controllers: 1,
			Stranded:    p.pl.StrandedPower(),
			Allocatable: p.room.AllocatablePower(),
			Interval:    500 * time.Millisecond,
		})
		tr.end()
		if err != nil {
			return nil, nil, err
		}
		out[i] = &fleetRoom{
			shard: shard, mgr: mgr, racks: p.liveRacks(),
			inactive:  map[power.UPSID]bool{},
			watch:     newTripWatch(p.topo),
			upsBatch:  make([]telemetry.Sample, 0, len(p.topo.UPSes)),
			rackBatch: make([]telemetry.Sample, 0, len(p.racks)),
		}
	}
	return fl, out, nil
}

type fleetOutcome struct {
	shed, detect time.Duration
	outage       bool
	// steps counts Shard.StepContext calls, overdrawSteps the ones that
	// saw an overdraw.
	steps, overdrawSteps int
}

// driveFleet is RunFleet's tick loop: AR(1) demand and ground-truth load
// flow (the driver's own work, booked to the emu layer as the tick span's
// self time), then per room IngestUPS / IngestRacks on the poll cadences,
// Pump and StepContext, and the aggregator after the last tick.
func driveFleet(ctx context.Context, p *plant, cfg emu.FleetConfig, tr *tracer) (fleetOutcome, error) {
	const tick = 500 * time.Millisecond
	vclk := clock.NewVirtual(emuStart)
	rng := rand.New(rand.NewSource(cfg.Seed))
	topo := p.topo

	tr.begin("emu.setup")
	fl, rooms, err := newFleet(vclk, p, cfg.Rooms, tr)
	tr.end()
	if err != nil {
		return fleetOutcome{}, err
	}

	out := fleetOutcome{shed: -1, detect: -1}
	ticks := int(cfg.Duration / tick)
	upsTick, rackTick := 3, 4 // 1.5s and 2s poll cadences
	ramp := cfg.FailAt / 2
	dt := tick.Seconds()

	for i := 0; i <= ticks; i++ {
		tr.begin("emu.tick")
		now := time.Duration(i) * tick
		target := emuUtilization
		if now < ramp {
			target = emuUtilization * (0.5 + 0.5*now.Seconds()/ramp.Seconds())
		}
		if now == cfg.FailAt {
			rooms[cfg.FailRoom].inactive[cfg.FailUPS] = true
		}
		for _, fr := range rooms {
			for j := range fr.racks {
				r := &fr.racks[j]
				r.step(target/emuUtilization*p.ratio[r.Category], 0.30, 0.015, dt, rng)
			}
		}

		wall := vclk.Now()
		if i%upsTick == 0 {
			for _, fr := range rooms {
				truth := upsTruth(topo, fr.mgr, fr.racks, fr.inactive)
				fr.upsBatch = fr.upsBatch[:0]
				for u := range topo.UPSes {
					fr.upsBatch = append(fr.upsBatch, telemetry.Sample{
						Device: topo.UPSes[u].Name, Power: truth[u], Valid: true, MeasuredAt: wall, PublishedAt: wall,
					})
				}
				tr.begin("fleet.Shard.IngestUPS")
				fr.shard.IngestUPS(fr.upsBatch)
				tr.end()
			}
		}
		if i%rackTick == 0 {
			for _, fr := range rooms {
				fr.rackBatch = fr.rackBatch[:0]
				for j := range fr.racks {
					fr.rackBatch = append(fr.rackBatch, telemetry.Sample{
						Device: fr.racks[j].ID, Power: rackPower(fr.mgr, &fr.racks[j]), Valid: true, MeasuredAt: wall, PublishedAt: wall,
					})
				}
				tr.begin("fleet.Shard.IngestRacks")
				fr.shard.IngestRacks(fr.rackBatch)
				tr.end()
			}
		}

		for ri, fr := range rooms {
			tr.begin("fleet.Shard.Pump")
			fr.shard.Pump()
			tr.end()
			tr.begin("fleet.Shard.StepContext")
			overdraw, enforced, _ := fr.shard.StepContext(ctx)
			tr.end()
			out.steps++
			if overdraw {
				out.overdrawSteps++
			}
			if ri == cfg.FailRoom && enforced > 0 && out.detect < 0 && now >= cfg.FailAt {
				out.detect = now - cfg.FailAt
			}
		}

		for ri, fr := range rooms {
			truth := upsTruth(topo, fr.mgr, fr.racks, fr.inactive)
			under := fr.watch.observe(topo, truth, fr.inactive, tick)
			if ri == cfg.FailRoom && now > cfg.FailAt && out.shed < 0 && under {
				out.shed = now - cfg.FailAt
			}
		}
		vclk.Advance(tick)
		tr.end()
	}

	tr.begin("emu.finish")
	for _, fr := range rooms {
		out.outage = out.outage || fr.watch.outage
	}
	tr.begin("fleet.AggregateOnce")
	fl.AggregateOnce(vclk.Now())
	tr.end()
	tr.begin("fleet.EpisodeTraces")
	fl.EpisodeTraces(0)
	tr.end()
	tr.end()
	return out, nil
}
