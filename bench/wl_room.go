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
	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/replay"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// roomWorkload is room-episode: emu.Run with every instrument attached,
// one operation per episode, each recorded log replayed afterwards.
type roomWorkload struct {
	env
	plant *plant
}

// recorderCapacity holds a whole 24-minute episode (about 194k events):
// replay needs the complete log, so Overwritten() > 0 fails the episode.
const recorderCapacity = 1 << 18

// instruments is the full observability stack of one episode.
type instruments struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	rec    *recorder.Recorder
	aud    *slo.Auditor
}

func newInstruments() instruments {
	rec := recorder.New(recorderCapacity)
	return instruments{
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(256),
		rec:    rec,
		aud: slo.NewAuditor(slo.Config{
			Store:    tsdb.NewStore(tsdb.Options{}),
			Recorder: rec,
			// The emulator pumps UPS telemetry every 1.5s and rack
			// telemetry every 2s; freshness thresholds sit above that.
			UPSFreshness:  3 * time.Second,
			RackFreshness: 4 * time.Second,
		}),
	}
}

func (w *roomWorkload) tick() time.Duration {
	if w.sc.EpisodeTick > 0 {
		return w.sc.EpisodeTick
	}
	return 500 * time.Millisecond
}

func (w *roomWorkload) ticks() int { return int(w.sc.EpisodeDuration/w.tick()) + 1 }

// setup builds what emu.Run builds before its first tick: the placed
// room, the instruments, and the metered, audited control plane.
func (w *roomWorkload) setup(ctx context.Context) error {
	p, err := buildPlant(ctx)
	if err != nil {
		return err
	}
	w.plant = p
	newControlRoom(p, w.config(0, instruments{}), newInstruments(), nil)
	return nil
}

func (w *roomWorkload) inputs(d *digest) {
	d.add("tick=%v failAt=%v recoverAt=%v duration=%v episodes=%d", w.tick(), w.sc.EpisodeFailAt, w.sc.EpisodeRecoverAt, w.sc.EpisodeDuration, w.sc.EpisodesPerRep)
	hashDeployments(d, w.plant.trace)
	for k := 0; k < (w.reps+1)*w.sc.EpisodesPerRep; k++ {
		d.add("dynamics %d", w.config(k, instruments{}).Seed)
	}
}

// config is episode k's emulation config; ins may be zero for a bare run.
func (w *roomWorkload) config(k int, ins instruments) emu.Config {
	return emu.Config{
		FailUPS:               0,
		FailAt:                w.sc.EpisodeFailAt,
		RecoverAt:             w.sc.EpisodeRecoverAt,
		Duration:              w.sc.EpisodeDuration,
		Tick:                  w.sc.EpisodeTick,
		Seed:                  subseed(w.seed, streamDynamics, k),
		TraceSeed:             paperTraceSeed,
		InjectTelemetryFaults: true,
		Obs:                   ins.reg,
		Tracer:                ins.tracer,
		Recorder:              ins.rec,
		Safety:                ins.aud,
	}
}

func (w *roomWorkload) rep(ctx context.Context, i int, res *result, fp *digest) (repStat, error) {
	n := w.sc.EpisodesPerRep
	st := repStat{ops: n * w.ticks()}
	for e := 0; e < n; e++ {
		k := i*n + e
		ins := newInstruments()
		cfg := w.config(k, ins)
		var out *emu.Result
		var err error
		wall, alloc := timed(w.clk, func() { out, err = emu.Run(ctx, cfg) })
		st.wall += wall
		st.alloc += alloc
		res.Attempted++
		if err != nil {
			res.fail(1, "episode %d: Run: %v", k, err)
			continue
		}
		st.put("shed_virtual_s", out.ShaveLatency.Seconds())
		st.put("detect_virtual_s", out.DetectionLatency.Seconds())

		// Replay the recorded log outside the timed section.
		events := ins.rec.Snapshot()
		start := w.clk.Now()
		rep, rerr := replay.Replay(ctx, events)
		st.put("replay_ms", float64(w.clk.Now().Sub(start).Microseconds())/1e3)
		if why := episodeFailure(out, ins, rep, rerr); why != "" {
			res.fail(1, "episode %d: %s", k, why)
		}
		plans := 0
		if rep != nil {
			plans = len(rep.Plans)
		}
		fp.add("shave=%v detect=%v sr=%.6f cap=%.6f p95=%.6f events=%d episodes=%d plans=%d",
			out.ShaveLatency, out.DetectionLatency, out.SRShutdownFrac, out.CapThrottledFrac, out.P95IncreasePct,
			ins.rec.Emitted(), ins.rec.Episodes(), plans)
	}
	return st, nil
}

// episodeFailure applies the operation rules to one episode.
func episodeFailure(out *emu.Result, ins instruments, rep *replay.Report, rerr error) string {
	switch {
	case out.Outage:
		return "a UPS outlasted its trip curve"
	case out.Insufficient:
		return "Algorithm 1 ran out of shaveable racks"
	case out.NonCapTouched > 0:
		return fmt.Sprintf("%d non-cap-able rack-ticks acted on", out.NonCapTouched)
	case out.ShaveLatency <= 0 || out.ShaveLatency > power.FlexLatencyBudget:
		return fmt.Sprintf("shave latency %v outside (0, %v]", out.ShaveLatency, power.FlexLatencyBudget)
	case !out.RestoredAll:
		return "racks left acted on after recovery"
	case ins.rec.Overwritten() > 0:
		return fmt.Sprintf("recorder overwrote %d events", ins.rec.Overwritten())
	case rerr != nil:
		return "replay: " + rerr.Error()
	case !rep.DiffEmpty():
		return fmt.Sprintf("replay diverged on %d of %d plans", rep.Mismatched, len(rep.Plans))
	}
	for _, tr := range ins.aud.Transitions() {
		if tr.To == slo.StateUnsafe {
			return fmt.Sprintf("auditor went unsafe at %v: %v", tr.Time, tr.Reasons)
		}
	}
	return ""
}

func (w *roomWorkload) report(reps []repStat, res *result) { controlReport(reps, res) }

// traced is the benchmark-owned stand-in for emu.Run's loop, checked
// against the black box: same seed, same virtual shave and detection.
func (w *roomWorkload) traced(ctx context.Context, i int, tr *tracer, res *result) (time.Duration, error) {
	var wall time.Duration
	n := w.sc.EpisodesPerRep
	for e := 0; e < n; e++ {
		k := i*n + e
		ins := newInstruments()
		cfg := w.config(k, ins)
		start := w.clk.Now()
		got := driveRoom(ctx, w.plant, cfg, ins, tr)
		wall += w.clk.Now().Sub(start)
		if tr == nil {
			continue // the spans-off twin; the traced pass has checked this episode
		}
		res.Attempted++
		want, err := emu.Run(ctx, w.config(k, instruments{}))
		if err != nil {
			return wall, err
		}
		if got.shed != want.ShaveLatency || got.detect != want.DetectionLatency || got.outage != want.Outage {
			res.fail(1, "episode %d: traced driver shave/detect/outage %v/%v/%v, emu.Run %v/%v/%v",
				k, got.shed, got.detect, got.outage, want.ShaveLatency, want.DetectionLatency, want.Outage)
		}
	}
	return wall, nil
}

// controlRoom is one room's live control plane, wired as emu.Run wires it.
type controlRoom struct {
	vclk       *clock.Virtual
	mgr        *rackmgr.Manager
	racks      []liveRack
	inactive   map[power.UPSID]bool
	upsView    *telemetry.LatestPower
	rackView   *telemetry.LatestPower
	upsMeters  []*telemetry.LogicalMeter
	rackMeters []*telemetry.SimMeter
	ctls       []*controller.Controller
	sampler    *tsdb.Sampler
}

func newControlRoom(p *plant, cfg emu.Config, ins instruments, tr *tracer) *controlRoom {
	topo := p.topo
	vclk := clock.NewVirtual(emuStart)
	r := &controlRoom{
		vclk: vclk, racks: p.liveRacks(), inactive: map[power.UPSID]bool{},
		upsView: telemetry.NewLatestPower(), rackView: telemetry.NewLatestPower(),
	}
	tr.begin("rackmgr.NewManager")
	r.mgr = rackmgr.NewManager(vclk, p.ids)
	tr.end()
	var telMetrics *telemetry.Metrics
	var ctlMetrics *controller.Metrics
	var stages *obs.StageMetrics
	if ins.reg != nil {
		// emu.Run registers the solver's series on the same registry; the
		// sampler scrapes them every tick, so they belong to the cost.
		milp.NewMetrics(ins.reg)
		r.mgr.Metrics = rackmgr.NewMetrics(ins.reg)
		telMetrics = telemetry.NewMetrics(ins.reg)
		ctlMetrics = controller.NewMetrics(ins.reg)
		stages = obs.NewStageMetrics(ins.reg)
	}
	r.mgr.Recorder = ins.rec
	if ins.rec != nil {
		r.upsView.SetRecorder(ins.rec, replay.RoleUPSView)
		r.rackView.SetRecorder(ins.rec, replay.RoleRackView)
	}

	r.upsMeters = make([]*telemetry.LogicalMeter, len(topo.UPSes))
	for u := range topo.UPSes {
		u := u
		r.upsMeters[u] = telemetry.NewUPSLogicalMeter(topo.UPSes[u].Name,
			func() power.Watts {
				tr.begin("emu.upsTruth")
				defer tr.end()
				return upsTruth(topo, r.mgr, r.racks, r.inactive)[u]
			},
			func() power.Watts { return 60 * power.KW },
			cfg.Seed+int64(u)*7)
		r.upsMeters[u].Metrics = telMetrics
		r.upsMeters[u].Recorder = ins.rec
	}
	r.rackMeters = make([]*telemetry.SimMeter, len(r.racks))
	for j := range r.racks {
		rk := &r.racks[j]
		r.rackMeters[j] = telemetry.NewSimMeter(rk.ID,
			func() power.Watts { return rackPower(r.mgr, rk) },
			telemetry.SimMeterConfig{Noise: 0.01, Seed: cfg.Seed + 1000 + int64(j)})
	}

	scenario := impact.Realistic1()
	r.ctls = make([]*controller.Controller, 3)
	for c := range r.ctls {
		tr.begin("controller.New")
		r.ctls[c] = controller.New(controller.Config{
			Name: fmt.Sprintf("flex-ctl-%d", c+1), Clock: vclk, Topo: topo, Racks: p.managed,
			UPSView: r.upsView, RackView: r.rackView, Actuator: r.mgr, Scenario: scenario,
			Metrics: ctlMetrics, Tracer: ins.tracer, Stages: stages, Recorder: ins.rec,
		})
		tr.end()
	}
	if ins.aud != nil {
		tr.begin("slo.Auditor.Bind")
		ins.aud.Bind(slo.Bindings{
			Clock: vclk, Topo: topo, Racks: p.managed, UPSView: r.upsView, RackView: r.rackView,
			Controllers: r.ctls, Scenario: scenario, Buffer: controller.DefaultBuffer(topo),
			AllocatablePower: p.room.AllocatablePower(), Stages: stages,
		})
		tr.end()
		r.sampler = &tsdb.Sampler{Registry: ins.reg, Store: ins.aud.Store(), Clock: vclk}
	}
	return r
}

type roomOutcome struct {
	shed, detect time.Duration
	outage       bool
}

// driveRoom is emu.Run's tick loop: AR(1) demand, the OLTP latency draw
// and ground-truth load flow are the driver's own work (the emu layer);
// the hops are meter read, view Update, Controller.StepContext x3,
// Sampler.Tick and Auditor.Tick. It keeps emu.Run's random draws in the
// same order, so the same seed yields the same virtual outcome.
func driveRoom(ctx context.Context, p *plant, cfg emu.Config, ins instruments, tr *tracer) roomOutcome {
	topo := p.topo
	tick := cfg.Tick
	if tick == 0 {
		tick = 500 * time.Millisecond
	}
	tr.begin("emu.setup")
	r := newControlRoom(p, cfg, ins, tr)
	tr.end()
	rng := rand.New(rand.NewSource(cfg.Seed))
	watch := newTripWatch(topo)
	out := roomOutcome{shed: -1, detect: -1}

	ticks := int(cfg.Duration / tick)
	upsTick := max(1, int(1500*time.Millisecond/tick))
	rackTick := max(1, int(2*time.Second/tick))
	dt := tick.Seconds()
	for i := 0; i <= ticks; i++ {
		tr.begin("emu.tick")
		now := time.Duration(i) * tick
		target := emuUtilization
		if now < 2*time.Minute {
			target = emuUtilization * (0.25 + 0.75*now.Seconds()/120)
		}
		if now == cfg.FailAt {
			r.inactive[cfg.FailUPS] = true
			ins.rec.Emit(recorder.Event{Type: recorder.TypeUPSFail, Time: r.vclk.Now(), Actor: "emu", Subject: topo.UPSes[cfg.FailUPS].Name})
			for u, lm := range r.upsMeters {
				if power.UPSID(u) == cfg.FailUPS {
					continue
				}
				lm.Meters()[0].(*telemetry.SimMeter).SetFailed(true)
				lm.Meters()[1].(*telemetry.SimMeter).SetOffset(power.Watts(0.02 * float64(topo.UPSes[u].Capacity)))
			}
		}
		if now == cfg.RecoverAt {
			delete(r.inactive, cfg.FailUPS)
			ins.rec.Emit(recorder.Event{Type: recorder.TypeUPSRecover, Time: r.vclk.Now(), Actor: "emu", Subject: topo.UPSes[cfg.FailUPS].Name})
		}
		for j := range r.racks {
			rk := &r.racks[j]
			rk.step(target/emuUtilization*p.ratio[rk.Category], 0.08, 0.020, dt, rng)
		}
		// emu.Run's OLTP latency model draws once per cap-able rack.
		for j := range r.racks {
			if r.racks[j].Category == workload.NonRedundantCapable {
				r.mgr.State(r.racks[j].ID)
				rng.NormFloat64()
			}
		}

		wall := r.vclk.Now()
		if i%upsTick == 0 {
			for u, lm := range r.upsMeters {
				tr.begin("telemetry.LogicalMeter.Read")
				v, err := lm.Read(wall)
				tr.end()
				tr.begin("telemetry.LatestPower.Update")
				r.upsView.Update(telemetry.Sample{Device: topo.UPSes[u].Name, Power: v, Valid: err == nil, MeasuredAt: wall})
				tr.end()
			}
		}
		if i%rackTick == 0 {
			// One span per batch: 360 racks a tick would otherwise put a
			// clock read around every 100ns meter read.
			tr.begin("telemetry.SimMeter.Read+Update/racks")
			for j, m := range r.rackMeters {
				v, err := m.Read(wall)
				r.rackView.Update(telemetry.Sample{Device: r.racks[j].ID, Power: v, Valid: err == nil, MeasuredAt: wall})
			}
			tr.end()
		}
		for _, c := range r.ctls {
			tr.begin("controller.StepContext")
			step := c.StepContext(ctx)
			tr.end()
			if step.Enforced > 0 && out.detect < 0 && now >= cfg.FailAt {
				out.detect = now - cfg.FailAt
			}
		}
		if ins.aud != nil {
			tr.begin("tsdb.Sampler.Tick")
			r.sampler.Tick(wall)
			tr.end()
			tr.begin("slo.Auditor.Tick")
			ins.aud.Tick(ctx, wall)
			tr.end()
		}
		// emu.Run's per-tick bookkeeping: action extents and the timeline
		// read every rack's state twice more.
		for j := range r.racks {
			r.mgr.State(r.racks[j].ID)
		}
		truth := upsTruth(topo, r.mgr, r.racks, r.inactive)
		under := watch.observe(topo, truth, r.inactive, tick)
		if now > cfg.FailAt && now < cfg.RecoverAt && out.shed < 0 && under {
			out.shed = now - cfg.FailAt
		}
		for j := range r.racks {
			rackPower(r.mgr, &r.racks[j])
		}
		r.vclk.Advance(tick)
		tr.end()
	}
	out.outage = watch.outage
	return out
}
