package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/emu"
	"flex/internal/impact"
	"flex/internal/lp"
	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/placement"
	"flex/internal/placement/online"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/replay"
	"flex/internal/sim"
	"flex/internal/stats"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// layerSpec is one per-layer metric: a rung of the ladder. Moves names the
// end-to-end metric it should move and where, written down before the
// first measurement; everything not named is predicted "no change".
type layerSpec struct {
	Name   string
	Unit   string
	Better string
	Clock  string
	Moves  string
}

// traceLayers are the layers whose public calls the traced runs put spans
// around; each gets a trace.self_share.<layer> metric.
var traceLayers = []string{"emu", "fleet", "telemetry", "controller", "rackmgr", "tsdb", "slo", "placement", "online"}

var perLayer = buildPerLayer()

func buildPerLayer() []layerSpec {
	lo, hi, h, c := "lower", "higher", clockHost, clockCount
	specs := []layerSpec{
		{"workload.generate_trace_us", "us", lo, h, "setup_s, all"},
		{"power.failover_loads_ns", "ns", lo, h, "room_tick_us on room-episode (slo probe)"},
		{"sim.expand_racks_us", "us", lo, h, "setup_s on the control workloads"},

		{"telemetry.meter_read_ns", "ns", lo, h, "room_tick_us on room-episode only (RunFleet bypasses meters)"},
		{"telemetry.view_update_ns", "ns", lo, h, "room_tick_us on both control workloads"},
		{"telemetry.publish_batch_ns_per_sample", "ns", lo, h, "room_tick_us on fleet-failover"},
		{"telemetry.recv_batch_ns_per_sample", "ns", lo, h, "room_tick_us on fleet-failover"},
		{"telemetry.dropped_samples", "count", lo, c, "none; must be 0"},

		{"fleet.ingest_ns_per_sample", "ns", lo, h, "room_tick_us on fleet-failover"},
		{"fleet.pump_us", "us", lo, h, "room_tick_us on fleet-failover"},
		{"fleet.pump_samples", "count", hi, c, "none; samples moved per Pump"},
		{"fleet.step_idle_us", "us", lo, h, "room_tick_us on fleet-failover (every tick but one)"},
		{"fleet.step_overdraw_us", "us", lo, h, "none end to end (one tick in 241)"},
		{"fleet.aggregate_us", "us", lo, h, "room_tick_us on fleet-failover (once per run)"},
		{"fleet.episode_traces_us", "us", lo, h, "room_tick_us on fleet-failover (once per run)"},
		{"fleet.add_room_us", "us", lo, h, "setup_s on fleet-failover"},
		{"fleet.ingest_overflow_ns_per_sample", "ns", lo, h, "none: the drop-oldest write path no workload stresses; guard only"},

		{"controller.step_idle_us", "us", lo, h, "room_tick_us on both control workloads (x3 primaries on room-episode)"},
		{"controller.plan_us", "us", lo, h, "none end to end; the number held against PlanBudget = 5s"},
		{"controller.plan_actions", "count", lo, c, "none; exact"},
		{"controller.steps", "count", lo, c, "none; exact"},
		{"controller.overdraw_steps", "count", lo, c, "none; exact"},

		{"rackmgr.state_ns", "ns", lo, h, "room_tick_us on both control workloads (per rack per tick, by the emulator's ground truth)"},
		{"rackmgr.action_ns", "ns", lo, h, "none (rare)"},
		{"rackmgr.actions", "count", lo, c, "none; exact"},

		{"emu.driver_self_share", "ratio", lo, h, "room_tick_us: the share of a tick that is the emulator's own load flow and demand model"},
		{"emu.blackbox_ratio", "ratio", lo, h, "room_tick_us: how much of it the ladder does not explain"},

		{"obs.counter_inc_ns", "ns", lo, h, "room_tick_us on room-episode"},
		{"obs.histogram_observe_ns", "ns", lo, h, "room_tick_us on room-episode"},
		{"obs.overhead_ratio", "ratio", lo, h, "room_tick_us and alloc_mb on room-episode: instrumented wall over bare wall"},
		{"recorder.emit_ns", "ns", lo, h, "room_tick_us on room-episode"},
		{"recorder.events", "count", lo, c, "alloc_mb on room-episode; exact"},
		{"tsdb.append_ns", "ns", lo, h, "room_tick_us on room-episode"},
		{"tsdb.sampler_tick_us", "us", lo, h, "room_tick_us on room-episode"},
		{"tsdb.sampler_tick_alloc_kb", "kB", lo, h, "alloc_mb on room-episode"},
		{"slo.audit_tick_us", "us", lo, h, "room_tick_us on room-episode"},
		{"slo.audit_tick_alloc_kb", "kB", lo, h, "alloc_mb on room-episode"},
		{"slo.probe_us", "us", lo, h, "room_tick_us on room-episode (every 5s virtual)"},
		{"replay.replay_ms", "ms", lo, h, "none (outside the timed section)"},
		{"replay.mismatched", "count", lo, c, "none; must be 0"},

		{"placement.batch_ilp_build_ms", "ms", lo, h, "sweep_s"},
		{"placement.batch_ilp_rows", "count", lo, c, "sweep_s through lp; exact"},
		{"placement.batch_ilp_vars", "count", lo, c, "sweep_s through lp; exact"},
		{"placement.place_short_ms", "ms", lo, h, "sweep_s; setup_s on both control workloads"},
		{"placement.place_long_ms", "ms", lo, h, "sweep_s"},
		{"placement.place_oracle_ms", "ms", lo, h, "sweep_s (the largest share)"},
		{"placement.place_brr_us", "us", lo, h, "sweep_s (negligible)"},
		{"placement.refine_ms", "ms", lo, h, "sweep_s: Short with minus without balance refinement"},
		{"placement.validate_us", "us", lo, h, "none (outside the policies)"},

		{"lp.root_solve_ms", "ms", lo, h, "sweep_s"},
		{"lp.root_pivots", "count", lo, c, "sweep_s; exact"},
		{"lp.pivots_total", "count", lo, c, "sweep_s; exact"},

		{"milp.solve_ms", "ms", lo, h, "sweep_s and online.resolve_ms; flat on admission-churn"},
		{"milp.nodes_per_s", "1/s", hi, h, "sweep_s"},
		{"milp.solve_alloc_mb", "MB", lo, h, "alloc_mb on placement-sweep"},
		{"milp.worker_idle_share", "ratio", lo, h, "sweep_s: idle workers are cores the search cannot use"},
		{"milp.nodes_total", "count", lo, c, "sweep_s; exact"},

		{"online.admit_contested_ns", "ns", lo, h, "admissions_per_s, admit_p50_us, admit_p99_us"},
		{"online.admit_full_ns", "ns", lo, h, "admissions_per_s (the cheap mode)"},
		{"online.remove_ns", "ns", lo, h, "admissions_per_s"},
		{"online.admit_p99_9_us", "us", lo, h, "none: does not repeat within a tenth on a shared box"},
		{"online.resolve_ms", "ms", lo, h, "sweep_s, online_gap_pp"},
		{"online.place_ms", "ms", lo, h, "sweep_s, online_gap_pp"},
		{"online.new_admitter_ms", "ms", lo, h, "setup_s on placement-sweep and admission-churn"},
		{"online.snapshot_us", "us", lo, h, "none"},

		{"trace.overhead_ratio", "ratio", lo, h, "none: traced wall over the same loop with spans off"},
		{"trace.spans", "count", lo, c, "none"},
	}
	for _, l := range traceLayers {
		specs = append(specs, layerSpec{"trace.self_share." + l, "ratio", lo, h, "the share of this workload's traced wall spent in " + l + " itself"})
	}
	return specs
}

// ladder measures every rung. Each rung times public calls on state built
// the way a workload builds it; counts are per repetition of that state.
type ladder struct {
	env
	div int // iteration divisor (scale.LadderScale)
	out map[string]value
}

func (l *ladder) emit(name string, v float64, unit string) { l.out[name] = exact(v, unit) }

func (l *ladder) n(iters int) int { return max(1, iters/l.div) }

// ms and us convert nanoseconds.
func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func runLadder(ctx context.Context, e env, res *result) error {
	l := &ladder{env: e, div: e.sc.LadderScale, out: res.Metrics}
	p, err := buildPlant(ctx)
	if err != nil {
		return err
	}
	l.inputsAndPower(p)
	l.telemetry(p)
	if err := l.fleet(ctx, p); err != nil {
		return err
	}
	if err := l.controller(ctx, p); err != nil {
		return err
	}
	if err := l.rackmgr(p); err != nil {
		return err
	}
	if err := l.emu(ctx, p, res); err != nil {
		return err
	}
	l.obs()
	if err := l.episode(ctx, p, res); err != nil {
		return err
	}
	if err := l.placement(ctx, res); err != nil {
		return err
	}
	return l.online(ctx)
}

func (l *ladder) inputsAndPower(p *plant) {
	paper := placement.PaperRoom()
	cfg := workload.DefaultTraceConfig(paper.Topo.ProvisionedPower())
	rng := rand.New(rand.NewSource(subseed(l.seed, streamTrace, 1)))
	l.emit("workload.generate_trace_us", us(perOp(l.clk, l.n(2000), func() {
		_, _ = workload.GenerateTrace(cfg, rng) // the config is valid by construction
	})), "us")
	load := p.pl.PairLoad()
	l.emit("power.failover_loads_ns", perOp(l.clk, l.n(400_000), func() { p.topo.FailoverLoads(load, 0) }), "ns")
	l.emit("sim.expand_racks_us", us(perOp(l.clk, l.n(2000), func() { sim.ExpandRacks(p.pl) })), "us")
}

func (l *ladder) telemetry(p *plant) {
	at := emuStart
	lm := telemetry.NewUPSLogicalMeter("UPS-1", func() power.Watts { return power.MW }, func() power.Watts { return 60 * power.KW }, l.seed)
	l.emit("telemetry.meter_read_ns", perOp(l.clk, l.n(200_000), func() {
		at = at.Add(1500 * time.Millisecond) // the poll cadence; the UPS meter holds a reading for 3s
		_, _ = lm.Read(at)                   // no meter is failed, so quorum holds
	}), "ns")

	view := telemetry.NewLatestPower()
	batch := rackBatch(p, emuStart)
	i := 0
	l.emit("telemetry.view_update_ns", perOp(l.clk, l.n(1_000_000), func() {
		s := batch[i%len(batch)]
		s.MeasuredAt = emuStart.Add(time.Duration(i/len(batch)+1) * time.Second)
		view.Update(s)
		i++
	}), "ns")

	br := telemetry.NewBroker("ladder")
	sub := br.Subscribe("power/rack/ladder", 1024)
	buf := make([]telemetry.Sample, 256)
	var pub, recv time.Duration
	rounds := l.n(4000)
	for r := 0; r < rounds; r++ {
		t0 := l.clk.Now()
		br.PublishBatch("power/rack/ladder", batch)
		t1 := l.clk.Now()
		for sub.RecvBatch(buf) == len(buf) {
		}
		recv += l.clk.Now().Sub(t1)
		pub += t1.Sub(t0)
	}
	samples := float64(rounds * len(batch))
	l.emit("telemetry.publish_batch_ns_per_sample", float64(pub.Nanoseconds())/samples, "ns")
	l.emit("telemetry.recv_batch_ns_per_sample", float64(recv.Nanoseconds())/samples, "ns")
	l.emit("telemetry.dropped_samples", float64(sub.Dropped()), "count")
}

// rackBatch is one room's rack telemetry batch at the emulators' utilization.
func rackBatch(p *plant, at time.Time) []telemetry.Sample {
	batch := make([]telemetry.Sample, len(p.racks))
	for i, r := range p.racks {
		batch[i] = telemetry.Sample{Device: r.ID, Power: power.Watts(emuUtilization * float64(r.Allocated)), Valid: true, MeasuredAt: at, PublishedAt: at}
	}
	return batch
}

// upsBatch is one room's UPS telemetry for the given per-UPS loads.
func upsBatch(topo *power.Topology, loads []power.Watts, at time.Time) []telemetry.Sample {
	batch := make([]telemetry.Sample, len(topo.UPSes))
	for u := range topo.UPSes {
		batch[u] = telemetry.Sample{Device: topo.UPSes[u].Name, Power: loads[u], Valid: true, MeasuredAt: at, PublishedAt: at}
	}
	return batch
}

func (l *ladder) fleet(ctx context.Context, p *plant) error {
	vclk := clock.NewVirtual(emuStart)
	rooms := l.sc.LadderRooms
	start := l.clk.Now()
	f, frs, err := newFleet(vclk, p, rooms, nil)
	if err != nil {
		return err
	}
	l.emit("fleet.add_room_us", us(float64(l.clk.Now().Sub(start).Nanoseconds())/float64(rooms)), "us")

	normal := p.topo.UPSLoads(scaleLoad(p.pl.PairLoad(), emuUtilization))
	var ingest, pump time.Duration
	var pumped int
	rounds := l.n(200)
	for r := 0; r < rounds; r++ {
		vclk.Advance(2 * time.Second)
		at := vclk.Now()
		racks, ups := rackBatch(p, at), upsBatch(p.topo, normal, at)
		for _, fr := range frs {
			fr.shard.IngestUPS(ups)
			t0 := l.clk.Now()
			fr.shard.IngestRacks(racks)
			t1 := l.clk.Now()
			pumped += fr.shard.Pump()
			pump += l.clk.Now().Sub(t1)
			ingest += t1.Sub(t0)
		}
	}
	calls := float64(rounds * rooms)
	l.emit("fleet.ingest_ns_per_sample", float64(ingest.Nanoseconds())/(calls*float64(len(p.racks))), "ns")
	l.emit("fleet.pump_us", us(float64(pump.Nanoseconds())/calls), "us")
	l.emit("fleet.pump_samples", float64(pumped)/calls, "count")

	l.emit("fleet.step_idle_us", us(perOp(l.clk, l.n(200), func() {
		for _, fr := range frs {
			fr.shard.StepContext(ctx)
		}
	}))/float64(rooms), "us")

	// Overdraw: UPS 0 reads dark and its load has moved to the partners.
	// The first step on such telemetry plans and enforces; later ones
	// would wait for fresh samples, so each room is stepped once.
	vclk.Advance(2 * time.Second)
	failed := upsBatch(p.topo, p.topo.FailoverLoads(scaleLoad(p.pl.PairLoad(), emuUtilization), 0), vclk.Now())
	for _, fr := range frs {
		fr.shard.IngestUPS(failed)
		fr.shard.Pump()
	}
	l.emit("fleet.step_overdraw_us", us(perOp(l.clk, 1, func() {
		for _, fr := range frs {
			fr.shard.StepContext(ctx)
		}
	}))/float64(rooms), "us")

	l.emit("fleet.aggregate_us", us(perOp(l.clk, l.n(400), func() { f.AggregateOnce(vclk.Now()) })), "us")
	l.emit("fleet.episode_traces_us", us(perOp(l.clk, l.n(400), func() { f.EpisodeTraces(0) })), "us")

	// Queue full, nothing pumping: every sample evicts the oldest.
	over := frs[0].shard
	racks := rackBatch(p, vclk.Now())
	for i := 0; i < 4; i++ {
		over.IngestRacks(racks)
	}
	l.emit("fleet.ingest_overflow_ns_per_sample", perOp(l.clk, l.n(400), func() { over.IngestRacks(racks) })/float64(len(racks)), "ns")
	return nil
}

func scaleLoad(load power.PairLoad, f float64) power.PairLoad {
	out := load.Clone()
	for i := range out {
		out[i] *= power.Watts(f)
	}
	return out
}

func (l *ladder) controller(ctx context.Context, p *plant) error {
	vclk := clock.NewVirtual(emuStart)
	upsView, rackView := telemetry.NewLatestPower(), telemetry.NewLatestPower()
	normal := p.topo.UPSLoads(scaleLoad(p.pl.PairLoad(), emuUtilization))
	for _, s := range upsBatch(p.topo, normal, emuStart) {
		upsView.Update(s)
	}
	for _, s := range rackBatch(p, emuStart) {
		rackView.Update(s)
	}
	c := controller.New(controller.Config{
		Name: "ladder", Clock: vclk, Topo: p.topo, Racks: p.managed, UPSView: upsView, RackView: rackView,
		Actuator: rackmgr.NewManager(vclk, p.ids), Scenario: impact.Realistic1(),
	})
	l.emit("controller.step_idle_us", us(perOp(l.clk, l.n(4000), func() { c.StepContext(ctx) })), "us")

	rng := rand.New(rand.NewSource(subseed(l.seed, streamDynamics, 0)))
	rackPow := sim.SampleRackPowers(p.racks, emuUtilization, rng)
	in := controller.PlanInput{
		Topo: p.topo, Racks: p.managed,
		UPSPower:  p.topo.FailoverLoads(sim.PairLoadFromRacks(p.topo, p.racks, rackPow), 0),
		RackPower: rackPow,
		Inactive:  map[power.UPSID]bool{0: true},
		Scenario:  impact.Realistic1(),
		Buffer:    controller.DefaultBuffer(p.topo),
	}
	var actions []controller.PlannedAction
	var perr error
	l.emit("controller.plan_us", us(perOp(l.clk, l.n(400), func() { actions, _, perr = controller.PlanContext(ctx, in) })), "us")
	if perr != nil {
		return fmt.Errorf("controller.PlanContext: %w", perr)
	}
	l.emit("controller.plan_actions", float64(len(actions)), "count")
	return nil
}

func (l *ladder) rackmgr(p *plant) error {
	mgr := rackmgr.NewManager(clock.NewVirtual(emuStart), p.ids)
	i := 0
	l.emit("rackmgr.state_ns", perOp(l.clk, l.n(4_000_000), func() {
		_, _, _ = mgr.State(p.ids[i%len(p.ids)]) // every ID is managed
		i++
	}), "ns")
	actions := 0
	rounds := l.n(200)
	start := l.clk.Now()
	for r := 0; r < rounds; r++ {
		for j, id := range p.ids {
			var err error
			if j%2 == 0 {
				err = mgr.Throttle(id, p.racks[j].FlexPower)
			} else {
				err = mgr.Shutdown(id)
			}
			if err == nil {
				err = mgr.Restore(id)
			}
			if err != nil {
				return fmt.Errorf("rackmgr: %w", err)
			}
			actions += 2
		}
	}
	l.emit("rackmgr.action_ns", float64(l.clk.Now().Sub(start).Nanoseconds())/float64(actions), "ns")
	l.emit("rackmgr.actions", float64(actions/rounds), "count")
	return nil
}

// emu compares the black box with the traced ladder at equal size.
func (l *ladder) emu(ctx context.Context, p *plant, res *result) error {
	cfg := emu.FleetConfig{
		Rooms: l.sc.LadderRooms, Duration: l.sc.FleetDuration, FailAt: l.sc.FleetFailAt,
		Seed: subseed(l.seed, streamDynamics, 0), TraceSeed: paperTraceSeed,
	}
	// The black box first, twice, keeping the second: the first faults the
	// code in for both sides.
	var box time.Duration
	var want *emu.FleetResult
	for i := 0; i < 2; i++ {
		start := l.clk.Now()
		out, err := emu.RunFleet(ctx, cfg)
		if err != nil {
			return err
		}
		box, want = l.clk.Now().Sub(start), out
	}
	var driver time.Duration
	var got fleetOutcome
	var tr *tracer
	for i := 0; i < 2; i++ {
		tr = newTracer(l.clk)
		start := l.clk.Now()
		out, err := driveFleet(ctx, p, cfg, tr)
		if err != nil {
			return err
		}
		driver, got = l.clk.Now().Sub(start), out
	}
	res.Attempted++
	if got.shed != want.ShedLatency || got.detect != want.DetectLatency {
		res.fail(1, "ladder: traced driver shed/detect %v/%v, RunFleet %v/%v", got.shed, got.detect, want.ShedLatency, want.DetectLatency)
	}
	self, total := tr.selfTimes()
	l.emit("emu.driver_self_share", float64(self["emu"])/float64(total), "ratio")
	l.emit("emu.blackbox_ratio", float64(box)/float64(driver), "ratio")
	l.emit("controller.steps", float64(got.steps), "count")
	l.emit("controller.overdraw_steps", float64(got.overdrawSteps), "count")
	return nil
}

func (l *ladder) obs() {
	reg := obs.NewRegistry()
	ctr := reg.Counter("ladder_total", "ladder")
	l.emit("obs.counter_inc_ns", perOp(l.clk, l.n(20_000_000), ctr.Inc), "ns")
	hist := reg.Histogram("ladder_seconds", "ladder", obs.LatencyBuckets())
	v := 0.0
	l.emit("obs.histogram_observe_ns", perOp(l.clk, l.n(10_000_000), func() {
		v += 0.001
		if v > 12 {
			v = 0
		}
		hist.Observe(v)
	}), "ns")

	rec := recorder.New(0)
	ev := recorder.Event{Type: recorder.TypeSampleArrive, Time: emuStart, Actor: "ladder", Subject: "UPS-1", Value: 1}
	l.emit("recorder.emit_ns", perOp(l.clk, l.n(10_000_000), func() { rec.Emit(ev) }), "ns")

	series := tsdb.NewStore(tsdb.Options{}).Series("ladder")
	at := emuStart
	l.emit("tsdb.append_ns", perOp(l.clk, l.n(10_000_000), func() {
		at = at.Add(500 * time.Millisecond)
		series.Append(at, 1)
	}), "ns")
}

// episode runs one room episode bare and one fully instrumented, then
// measures the per-tick instruments on the instrumented episode's own
// registry and control plane, and replays its log.
func (l *ladder) episode(ctx context.Context, p *plant, res *result) error {
	w := &roomWorkload{env: l.env, plant: p}
	var bare, full time.Duration
	ins := newInstruments()
	for i := 0; i < 2; i++ { // the first bare run faults the code in
		start := l.clk.Now()
		if _, err := emu.Run(ctx, w.config(0, instruments{})); err != nil {
			return err
		}
		bare = l.clk.Now().Sub(start)
	}
	start := l.clk.Now()
	out, err := emu.Run(ctx, w.config(0, ins))
	if err != nil {
		return err
	}
	full = l.clk.Now().Sub(start)
	l.emit("obs.overhead_ratio", float64(full)/float64(bare), "ratio")
	l.emit("recorder.events", float64(ins.rec.Emitted()), "count")

	events := ins.rec.Snapshot()
	var rep *replay.Report
	var rerr error
	l.emit("replay.replay_ms", ms(perOp(l.clk, l.n(10), func() { rep, rerr = replay.Replay(ctx, events) })), "ms")
	res.Attempted++
	if why := episodeFailure(out, ins, rep, rerr); why != "" {
		res.fail(1, "ladder episode: %s", why)
	}
	mismatched := 0
	if rep != nil {
		mismatched = rep.Mismatched
	}
	l.emit("replay.mismatched", float64(mismatched), "count")

	// The sampler on the registry the episode populated.
	sampler := &tsdb.Sampler{Registry: ins.reg, Store: ins.aud.Store()}
	at := emuStart.Add(l.sc.EpisodeDuration)
	tick := func() {
		at = at.Add(500 * time.Millisecond)
		sampler.Tick(at)
	}
	l.emit("tsdb.sampler_tick_us", us(perOp(l.clk, l.n(2000), tick)), "us")
	l.emit("tsdb.sampler_tick_alloc_kb", allocPerOp(l.n(200), tick)/1e3, "kB")

	// Two auditors on a fresh, primed control plane: one never probes, one
	// probes on every tick; the difference is the probe.
	auditTick := func(probeEvery time.Duration) (perTick, allocKB float64) {
		ins := newInstruments()
		ins.aud = slo.NewAuditor(slo.Config{Store: tsdb.NewStore(tsdb.Options{}), Recorder: ins.rec,
			UPSFreshness: time.Hour, RackFreshness: time.Hour, ProbeEvery: probeEvery})
		room := newControlRoom(p, w.config(0, ins), ins, nil)
		for j := range room.racks {
			room.racks[j].demand = emuUtilization
		}
		now := room.vclk.Now()
		for u, lm := range room.upsMeters {
			v, err := lm.Read(now)
			room.upsView.Update(telemetry.Sample{Device: p.topo.UPSes[u].Name, Power: v, Valid: err == nil, MeasuredAt: now})
		}
		for j, m := range room.rackMeters {
			v, err := m.Read(now)
			room.rackView.Update(telemetry.Sample{Device: room.racks[j].ID, Power: v, Valid: err == nil, MeasuredAt: now})
		}
		step := func() {
			room.vclk.Advance(500 * time.Millisecond)
			ins.aud.Tick(ctx, room.vclk.Now())
		}
		// Five virtual minutes first: a tick's cost grows until the slow
		// burn-rate window is full.
		for i := 0; i < l.n(600); i++ {
			step()
		}
		return us(perOp(l.clk, l.n(1000), step)), allocPerOp(l.n(200), step) / 1e3
	}
	idle, idleKB := auditTick(-1)
	probing, _ := auditTick(time.Nanosecond)
	l.emit("slo.audit_tick_us", idle, "us")
	l.emit("slo.audit_tick_alloc_kb", idleKB, "kB")
	l.emit("slo.probe_us", probing-idle, "us")
	return nil
}

func (l *ladder) placement(ctx context.Context, res *result) error {
	room := placement.PaperRoom()
	sw := &sweepWorkload{env: l.env}
	sw.reps = 0
	if err := sw.setup(ctx); err != nil {
		return err
	}
	shuffles := max(1, 3/l.div)
	var traces [][]workload.Deployment
	for s := 0; s < shuffles; s++ {
		tr, err := sweepTraces(room, l.sc, l.seed, s)
		if err != nil {
			return err
		}
		traces = append(traces, tr[0])
	}
	batch := traces[0]
	if len(batch) > 40 {
		batch = batch[:40]
	}

	var prob *milp.Problem
	l.emit("placement.batch_ilp_build_ms", ms(perOp(l.clk, l.n(200), func() { prob = placement.BatchILP(room, batch) })), "ms")
	l.emit("placement.batch_ilp_rows", float64(len(prob.LP.Constraints)), "count")
	l.emit("placement.batch_ilp_vars", float64(prob.LP.NumVars()), "count")

	var root lp.Result
	var err error
	l.emit("lp.root_solve_ms", ms(perOp(l.clk, l.n(40), func() { root, err = lp.Solve(&prob.LP) })), "ms")
	if err != nil {
		return fmt.Errorf("lp.Solve: %w", err)
	}
	l.emit("lp.root_pivots", float64(root.Iterations), "count")

	// One batch-40 ILP, 300 nodes, deterministic, default workers.
	var solves, idle, nps, allocs []float64
	for i := 0; i < l.n(5); i++ {
		var sol milp.Result
		_, alloc := timed(l.clk, func() {
			sol, err = milp.SolveContext(ctx, prob, milp.Options{Deterministic: true, MaxNodes: 300, Incumbent: milp.GreedyBinaryIncumbent(prob)})
		})
		if err != nil {
			return fmt.Errorf("milp.SolveContext: %w", err)
		}
		solves = append(solves, ms(float64(sol.Elapsed.Nanoseconds())))
		nps = append(nps, float64(sol.Nodes)/sol.Elapsed.Seconds())
		idle = append(idle, float64(sol.WorkerIdle)/(float64(sol.Elapsed)*float64(sol.Workers)))
		allocs = append(allocs, float64(alloc)/1e6)
	}
	l.emit("milp.solve_ms", median(solves), "ms")
	l.emit("milp.nodes_per_s", median(nps), "1/s")
	l.emit("milp.worker_idle_share", median(idle), "ratio")
	l.emit("milp.solve_alloc_mb", median(allocs), "MB")

	// The policies, p50 over the shuffles, with a benchmark-owned
	// milp.Metrics counting the solver's work.
	pols := sw.policies(0)
	bare := pols[1].(placement.FlexOffline)
	bare.SkipBalanceRefinement = true
	p50 := func(pol placement.Policy) (float64, *placement.Placement, error) {
		var times []float64
		var last *placement.Placement
		for _, tr := range traces {
			start := l.clk.Now()
			pl, err := pol.Place(ctx, room, tr)
			if err != nil {
				return 0, nil, fmt.Errorf("%s: %w", pol.Name(), err)
			}
			times = append(times, float64(l.clk.Now().Sub(start).Nanoseconds()))
			last = pl
		}
		return median(times), last, nil
	}
	names := []string{"placement.place_brr_us", "placement.place_short_ms", "placement.place_long_ms", "placement.place_oracle_ms", "online.place_ms"}
	var short float64
	var placed *placement.Placement
	for i, pol := range pols {
		ns, pl, err := p50(pol)
		if err != nil {
			return err
		}
		res.Attempted++
		if verr := pl.Validate(); verr != nil {
			res.fail(1, "ladder %s: unsafe placement: %v", pol.Name(), verr)
		}
		if i == 0 {
			l.emit(names[i], us(ns), "us")
			continue
		}
		if i == 1 {
			short, placed = ns, pl
		}
		l.emit(names[i], ms(ns), "ms")
	}
	l.emit("lp.pivots_total", float64(sw.solver.SimplexIterations.Value()), "count")
	l.emit("milp.nodes_total", float64(sw.solver.Nodes.Value()), "count")
	unrefined, _, err := p50(bare)
	if err != nil {
		return err
	}
	l.emit("placement.refine_ms", ms(short-unrefined), "ms")
	l.emit("placement.validate_us", us(perOp(l.clk, l.n(4000), func() { _ = placed.Validate() })), "us")
	return nil
}

func (l *ladder) online(ctx context.Context) error {
	room := placement.PaperRoom()
	cfg := online.Config{Seed: subseed(l.seed, streamScenario, 0), ResolveEvery: -1}
	var adm *online.Admitter
	var err error
	l.emit("online.new_admitter_ms", ms(perOp(l.clk, l.n(200), func() { adm, err = online.NewAdmitter(room, cfg) })), "ms")
	if err != nil {
		return err
	}
	stream, err := arrivalStream(room.Topo.ProvisionedPower(), 4096, subseed(l.seed, streamArrivals, 0))
	if err != nil {
		return err
	}
	// Fill until the first rejection, then drop to half: the contested
	// regime, where several combos are feasible and scenarios are scored.
	var live []workload.Deployment
	next := 0
	for ; ; next++ {
		if _, ok := adm.Admit(stream[next]); !ok {
			break
		}
		live = append(live, stream[next])
	}
	for _, d := range live[len(live)/2:] {
		adm.Remove(d.ID)
	}
	l.emit("online.snapshot_us", us(perOp(l.clk, l.n(200_000), func() { adm.Snapshot() })), "us")
	l.emit("online.resolve_ms", ms(perOp(l.clk, l.n(5), func() { err = adm.ResolveOnce(ctx) })), "ms")
	if err != nil {
		return fmt.Errorf("online.ResolveOnce: %w", err)
	}

	var admit, remove time.Duration
	rounds, admitted := l.n(40_000), 0
	for r := 0; r < rounds; r++ {
		d := stream[(next+r)%len(stream)]
		t0 := l.clk.Now()
		_, ok := adm.Admit(d)
		t1 := l.clk.Now()
		admit += t1.Sub(t0)
		if ok {
			adm.Remove(d.ID)
			remove += l.clk.Now().Sub(t1)
			admitted++
		}
	}
	l.emit("online.admit_contested_ns", float64(admit.Nanoseconds())/float64(rounds), "ns")
	l.emit("online.remove_ns", float64(remove.Nanoseconds())/float64(max(1, admitted)), "ns")

	// Full room: refill until rejection; the same arrival keeps bouncing.
	full := stream[0]
	for i := range stream {
		d := stream[(next+i)%len(stream)]
		d.ID += len(stream) // fresh IDs: the first half is still committed
		if _, ok := adm.Admit(d); !ok {
			full = d
			break
		}
	}
	l.emit("online.admit_full_ns", perOp(l.clk, l.n(2_000_000), func() { adm.Admit(full) }), "ns")

	// The tail, from a short sawtooth of its own.
	cw := &churnWorkload{env: l.env}
	cw.sc.ChurnDecisions = max(2000, l.sc.ChurnDecisions/4)
	cw.reps = 0
	if err := cw.setup(ctx); err != nil {
		return err
	}
	tail, err := cw.admitter(0)
	if err != nil {
		return err
	}
	run := newChurnRun(len(cw.streams[0]))
	cw.churn(0, tail, nil, run, &result{})
	l.emit("online.admit_p99_9_us", stats.Percentile(run.lat, 99.9), "us")
	return nil
}
