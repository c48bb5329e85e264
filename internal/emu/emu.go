// Package emu reproduces the paper's end-to-end Flex-Online emulation
// (§V-C, Figure 13): a 4.8MW zero-reserved-power room of 360 emulated
// racks running synthetic workloads — a TeraSort-like batch job for the
// software-redundant workload and a latency-sensitive TPC-E-like OLTP
// workload for the non-redundant categories — placed by Flex-Offline-Short
// and driven through setup → normal operation → UPS failure → corrective
// action → recovery, with the real controller and telemetry code in the
// loop on a virtual clock.
package emu

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/replay"
	"flex/internal/sim"
	"flex/internal/stats"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// Config drives Run. Zero values select the paper's §V-C setup.
type Config struct {
	// Utilization is the steady-state aggregate utilization of provisioned
	// power (paper: 80%).
	Utilization float64
	// Scenario supplies impact functions (paper: Figure 11(c),
	// Realistic-1).
	Scenario *impact.Scenario
	// FailUPS is the UPS to fail.
	FailUPS power.UPSID
	// FailAt, RecoverAt, Duration stage the experiment (paper: failure
	// after 12 minutes).
	FailAt, RecoverAt, Duration time.Duration
	// Tick is the simulation step (default 500ms).
	Tick time.Duration
	// Controllers is the number of multi-primary controller instances
	// (default 3).
	Controllers int
	// Seed drives workload dynamics and meter noise.
	Seed int64
	// TraceSeed drives the demand trace.
	TraceSeed int64
	// InjectTelemetryFaults, when true, fails one physical meter of every
	// surviving UPS's consensus set and mis-calibrates another at the
	// moment of the UPS failure — the §IV-C redundancy must mask both
	// while Flex-Online is acting.
	InjectTelemetryFaults bool
	// Obs, when non-nil, instruments the run: controller, actuation,
	// consensus, and placement-solver metrics all register here.
	Obs *obs.Registry
	// Tracer, when non-nil, records detect→plan→act traces of overdraw
	// rounds (it is handed to every controller primary).
	Tracer *obs.Tracer
	// Recorder, when non-nil, captures the whole run as a flight-recorder
	// event log: a replay.Header meta event first, then every telemetry,
	// consensus, planning and actuation event — a log cmd/flexreplay can
	// re-drive deterministically.
	Recorder *recorder.Recorder
	// Safety, when non-nil, is the continuous safety auditor: Run binds
	// it to the emulated control plane (topology, telemetry views,
	// controllers) and drives one audit tick per emulation tick on the
	// virtual clock, after telemetry pumps and controller steps. When
	// Obs is also set, a tsdb sampler scrapes the registry into the
	// auditor's store on the same cadence.
	Safety *slo.Auditor
	// Debug prints controller decisions to stdout.
	Debug bool
}

func (c *Config) fillDefaults() {
	if c.Utilization == 0 {
		c.Utilization = 0.80
	}
	if c.Scenario == nil {
		s := impact.Realistic1()
		c.Scenario = &s
	}
	if c.FailAt == 0 {
		c.FailAt = 12 * time.Minute
	}
	if c.RecoverAt == 0 {
		c.RecoverAt = 18 * time.Minute
	}
	if c.Duration == 0 {
		c.Duration = 24 * time.Minute
	}
	if c.Tick == 0 {
		c.Tick = 500 * time.Millisecond
	}
	if c.Controllers == 0 {
		c.Controllers = 3
	}
	if c.TraceSeed == 0 {
		c.TraceSeed = 9
	}
}

// Stage labels for the timeline (Figure 13's A–G annotations).
const (
	StageSetup    = "setup"
	StageNormal   = "normal"
	StageFailover = "failover"
	StageRecovery = "recovery"
)

// TimePoint is one sample of the emulation timeline.
type TimePoint struct {
	T     time.Duration
	Stage string
	// UPSPower is the ground-truth output power per UPS (Figure 13a).
	UPSPower []power.Watts
	// RackPower is the total rack power by category (Figure 13b).
	RackPower map[workload.Category]power.Watts
}

// Result summarizes a run.
type Result struct {
	Series []TimePoint
	// SRShutdownFrac is the fraction of software-redundant racks shut
	// down during the failover (paper: 64%).
	SRShutdownFrac float64
	// CapThrottledFrac is the fraction of cap-able racks throttled
	// (paper: 51%).
	CapThrottledFrac float64
	// NonCapTouched counts non-cap-able racks acted on (must be 0).
	NonCapTouched int
	// DetectionLatency is from the UPS failure to the first enforced
	// corrective action.
	DetectionLatency time.Duration
	// ShaveLatency is from the UPS failure until every surviving UPS is
	// back below rated capacity (must be within the Flex 10s budget).
	ShaveLatency time.Duration
	// Outage reports whether any UPS overload outlasted its trip-curve
	// tolerance (cascading failure — must be false).
	Outage bool
	// Insufficient is true when Algorithm 1 ran out of shaveable racks.
	Insufficient bool
	// BaselineP95, ThrottledP95 are the TPC-E-like 95th-percentile
	// latencies (arbitrary units) of cap-able racks outside and inside
	// the throttled window; P95IncreasePct compares them (paper: +4.7%).
	BaselineP95, ThrottledP95 float64
	P95IncreasePct            float64
	// WorstIncreasePct is the worst per-tick latency increase of any
	// throttled rack (paper: 14%).
	WorstIncreasePct float64
	// RestoredAll reports whether every acted rack was restored by the
	// end of the run.
	RestoredAll bool
}

// rackSim is the live state of one emulated rack.
type rackSim struct {
	sim.Rack
	demand    float64 // demanded power fraction of allocation (AR(1))
	rampUntil time.Duration
}

// Run executes the emulation. ctx bounds the offline placement solve and
// is threaded to the controller's planning passes.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	room := placement.EmulationRoom()
	topo := room.Topo

	// Place the demand with Flex-Offline-Short (paper methodology), one
	// workload per category.
	tcfg := workload.DefaultTraceConfig(topo.ProvisionedPower())
	tcfg.WorkloadsPerCategory = 1
	tcfg.FlexPowerMin, tcfg.FlexPowerMax = 0.845, 0.855 // paper: flex power 85%
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
	racks := sim.ExpandRacks(pl)
	if len(racks) == 0 {
		return nil, fmt.Errorf("emu: nothing placed")
	}
	managed := sim.ManagedRacks(racks)

	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewVirtual(start)

	// Per-category demand ratios (TeraSort-like batch hot, TPC-E-like
	// OLTP near its flex power, non-cap-able cooler), normalized against
	// the placed mix so the aggregate draw hits cfg.Utilization exactly.
	ratio := map[workload.Category]float64{
		workload.SoftwareRedundant:      0.90 / 0.80,
		workload.NonRedundantCapable:    0.83 / 0.80,
		workload.NonRedundantNonCapable: 0.67 / 0.80,
	}
	var weighted float64
	for _, r := range racks {
		weighted += ratio[r.Category] * float64(r.Allocated)
	}
	// Scale so the aggregate draw at full demand equals Utilization ×
	// provisioned power — the paper's "80% of the provisioned power at
	// the UPS level" (§V-C); placed allocation is slightly below
	// provisioned, so per-rack duty runs a little above the aggregate.
	norm := cfg.Utilization * float64(topo.ProvisionedPower()) / weighted
	for c := range ratio {
		ratio[c] *= norm
	}

	// Live rack state.
	sims := make([]*rackSim, len(racks))
	for i, r := range racks {
		sims[i] = &rackSim{Rack: r, demand: 0.2}
	}
	ids := make([]string, len(racks))
	for i, r := range racks {
		ids[i] = r.ID
	}
	mgr := rackmgr.NewManager(clk, ids)
	if cfg.Obs != nil {
		mgr.Metrics = rackmgr.NewMetrics(cfg.Obs)
	}
	mgr.Recorder = cfg.Recorder

	// Ground truth honors the actuation state and the failover transfer
	// away from the out-of-service UPSes.
	var inactive power.UPSSet
	truth := newGroundTruth(topo, mgr, sims)

	// Telemetry: consensus meters over the ground truth, pumped
	// synchronously into the controller views on the paper's cadences.
	upsView := telemetry.NewLatestPower()
	rackView := telemetry.NewLatestPower()
	if cfg.Recorder != nil {
		upsView.SetRecorder(cfg.Recorder, replay.RoleUPSView)
		rackView.SetRecorder(cfg.Recorder, replay.RoleRackView)
	}
	var telMetrics *telemetry.Metrics
	if cfg.Obs != nil {
		telMetrics = telemetry.NewMetrics(cfg.Obs)
	}
	upsMeters := make([]*telemetry.LogicalMeter, len(topo.UPSes))
	for u := range topo.UPSes {
		u := u
		upsMeters[u] = telemetry.NewUPSLogicalMeter(topo.UPSes[u].Name,
			func() power.Watts { return truth.ups[u] },
			func() power.Watts { return 60 * power.KW }, // mechanical load
			cfg.Seed+int64(u)*7)
		upsMeters[u].Metrics = telMetrics
		upsMeters[u].Recorder = cfg.Recorder
	}
	rackMeters := make([]*telemetry.SimMeter, len(sims))
	for i, rs := range sims {
		rackMeters[i] = telemetry.NewSimMeter(rs.ID,
			func() power.Watts { return truth.rack[i] },
			telemetry.SimMeterConfig{Noise: 0.01, Seed: cfg.Seed + 1000 + int64(i)})
	}

	// Controllers (multi-primary). The instances share one Metrics so the
	// room's counters and latency histograms aggregate across primaries.
	var ctlMetrics *controller.Metrics
	var stages *obs.StageMetrics
	if cfg.Obs != nil {
		ctlMetrics = controller.NewMetrics(cfg.Obs)
		stages = obs.NewStageMetrics(cfg.Obs)
	}
	ctls := make([]*controller.Controller, cfg.Controllers)
	for i := range ctls {
		ctls[i] = controller.New(controller.Config{
			Name:     fmt.Sprintf("flex-ctl-%d", i+1),
			Clock:    clk,
			Topo:     topo,
			Racks:    managed,
			UPSView:  upsView,
			RackView: rackView,
			Actuator: mgr,
			Scenario: *cfg.Scenario,
			Metrics:  ctlMetrics,
			Tracer:   cfg.Tracer,
			Stages:   stages,
			Recorder: cfg.Recorder,
		})
	}

	// Safety auditor: bound to the same views, controllers and planning
	// inputs the live control plane runs with, ticked synchronously on
	// the virtual clock.
	var sampler *tsdb.Sampler
	if cfg.Safety != nil {
		cfg.Safety.Bind(slo.Bindings{
			Clock:            clk,
			Topo:             topo,
			Racks:            managed,
			UPSView:          upsView,
			RackView:         rackView,
			Controllers:      ctls,
			Scenario:         *cfg.Scenario,
			Buffer:           controller.DefaultBuffer(topo),
			AllocatablePower: room.AllocatablePower(),
			Stages:           stages,
		})
		if cfg.Obs != nil {
			sampler = &tsdb.Sampler{Registry: cfg.Obs, Store: cfg.Safety.Store(), Clock: clk}
		}
	}

	// The episode log leads with its replay header: everything the event
	// stream cannot carry (room, scenario, managed racks) pinned up front
	// so cmd/flexreplay can rebuild the controllers' exact PlanInputs.
	if cfg.Recorder != nil {
		hdr := replay.NewHeader("emulation", start, cfg.Scenario.Name, 0, managed)
		hdr.Utilization = cfg.Utilization
		hdr.Seed = cfg.Seed
		for i := range ctls {
			hdr.Controllers = append(hdr.Controllers, fmt.Sprintf("flex-ctl-%d", i+1))
		}
		me, err := hdr.MetaEvent(clk.Now(), "emu")
		if err != nil {
			return nil, fmt.Errorf("emu: encoding replay header: %w", err)
		}
		cfg.Recorder.Emit(me)
	}

	res := &Result{}
	firstEnforce := time.Duration(-1)
	shavedAt := time.Duration(-1)

	srTotal, capTotal := 0, 0
	for _, r := range racks {
		switch r.Category {
		case workload.SoftwareRedundant:
			srTotal++
		case workload.NonRedundantCapable:
			capTotal++
		}
	}
	maxShut, maxThrottled := 0, 0

	// One latency sample per cap-able rack per tick: baseline over the
	// normal stage, throttled (at most) over the failover stage. Sized from
	// the stage boundaries, never from Duration: a year-long run still has
	// a six-minute failover.
	stageSamples := func(stage time.Duration) int { return capTotal * (int(max(stage, 0)/cfg.Tick) + 1) }
	latBase := make([]float64, 0, stageSamples(cfg.FailAt-2*time.Minute))
	latThrottled := make([]float64, 0, stageSamples(cfg.RecoverAt-cfg.FailAt))

	ticks := int(cfg.Duration / cfg.Tick)
	upsTick := int((1500 * time.Millisecond) / cfg.Tick) // UPS poll cadence
	rackTick := int((2 * time.Second) / cfg.Tick)        // rack poll cadence
	if upsTick < 1 {
		upsTick = 1
	}
	if rackTick < 1 {
		rackTick = 1
	}

	dt := cfg.Tick.Seconds()
	for i := 0; i <= ticks; i++ {
		now := time.Duration(i) * cfg.Tick
		stage := StageSetup
		target := cfg.Utilization
		switch {
		case now < 2*time.Minute:
			stage = StageSetup
			target = cfg.Utilization * (0.25 + 0.75*now.Seconds()/120)
		case now < cfg.FailAt:
			stage = StageNormal
		case now < cfg.RecoverAt:
			stage = StageFailover
		default:
			stage = StageRecovery
		}

		// Failure / recovery events.
		if now == cfg.FailAt {
			inactive |= power.SetOf(cfg.FailUPS)
			if cfg.Recorder != nil {
				cfg.Recorder.Emit(recorder.Event{
					Type:    recorder.TypeUPSFail,
					Time:    clk.Now(),
					Actor:   "emu",
					Subject: topo.UPSes[cfg.FailUPS].Name,
				})
			}
			if cfg.InjectTelemetryFaults {
				for u, lm := range upsMeters {
					if power.UPSID(u) == cfg.FailUPS {
						continue
					}
					// One hard meter failure and one +2% misreading per
					// surviving UPS; the median consensus absorbs both.
					lm.Meters()[0].(*telemetry.SimMeter).SetFailed(true)
					lm.Meters()[1].(*telemetry.SimMeter).SetOffset(
						power.Watts(0.02 * float64(topo.UPSes[u].Capacity)))
				}
			}
		}
		if now == cfg.RecoverAt {
			inactive &^= power.SetOf(cfg.FailUPS)
			if cfg.Recorder != nil {
				cfg.Recorder.Emit(recorder.Event{
					Type:    recorder.TypeUPSRecover,
					Time:    clk.Now(),
					Actor:   "emu",
					Subject: topo.UPSes[cfg.FailUPS].Name,
				})
			}
		}

		// Advance workload dynamics (AR(1) demand around per-category
		// targets). The synthetic benchmarks run at different duty:
		// TeraSort-like batch (software-redundant) near full tilt, the
		// TPC-E-like OLTP (cap-able) close to its flex power, and the
		// non-cap-able racks lower — mixing to the aggregate target
		// (ratios relative to the paper's 80% aggregate setup).
		for _, rs := range sims {
			// target already folds in the setup ramp; ratio folds in the
			// steady-state utilization.
			catTarget := target / cfg.Utilization * ratio[rs.Category]
			if catTarget > 1 {
				catTarget = 1
			}
			theta, sigma := 0.08, 0.020
			rs.demand += theta*(catTarget-rs.demand)*dt + sigma*rng.NormFloat64()*dt
			if rs.demand < 0.1 {
				rs.demand = 0.1
			}
			if rs.demand > 1 {
				rs.demand = 1
			}
		}

		// The meters, the latency model and the debug print below all see
		// this tick's demand under the actuation state the last tick left.
		truth.refresh(inactive)

		// TPC-E-like latency model for cap-able racks: capping below the
		// demanded power queues requests and inflates tail latency.
		for j, rs := range sims {
			if rs.Category != workload.NonRedundantCapable {
				continue
			}
			st, cap := truth.state[j], truth.cap[j]
			base := 1.0 + 0.02*rng.NormFloat64()
			lat := base
			throttledNow := st == rackmgr.Throttled
			if throttledNow {
				demand := rs.demand * float64(rs.Allocated)
				if demand > float64(cap) && cap > 0 {
					over := (demand - float64(cap)) / float64(cap)
					lat = base * (1 + 0.42*over)
					if inc := (lat/base - 1) * 100; inc > res.WorstIncreasePct {
						res.WorstIncreasePct = inc
					}
				}
			}
			if stage == StageFailover && throttledNow {
				latThrottled = append(latThrottled, lat)
			} else if stage == StageNormal {
				latBase = append(latBase, lat)
			}
		}

		// Telemetry pumps on their cadences.
		wall := clk.Now()
		if i%upsTick == 0 {
			for u, lm := range upsMeters {
				v, err := lm.Read(wall)
				upsView.Update(telemetry.Sample{
					Device: topo.UPSes[u].Name, Power: v, Valid: err == nil, MeasuredAt: wall,
				})
			}
		}
		if i%rackTick == 0 {
			for j, m := range rackMeters {
				v, err := m.Read(wall)
				rackView.Update(telemetry.Sample{
					Device: sims[j].ID, Power: v, Valid: err == nil, MeasuredAt: wall,
				})
			}
		}

		if cfg.Debug && now >= cfg.FailAt && now <= cfg.FailAt+5*time.Second {
			tr := truth.ups
			fmt.Printf("t=%v truth=[%.3f %.3f %.3f %.3f]MW\n", now,
				float64(tr[0])/1e6, float64(tr[1])/1e6, float64(tr[2])/1e6, float64(tr[3])/1e6)
		}
		// Controllers evaluate.
		for ci, c := range ctls {
			out := c.StepContext(ctx)
			if cfg.Debug && (out.Enforced > 0 || out.Restored > 0 || out.Insufficient) {
				kinds := map[string]int{}
				for _, a := range out.Planned {
					kinds[a.Kind.String()]++
				}
				fmt.Printf("t=%v ctl=%d planned=%v enforced=%d restored=%d insufficient=%v errs=%d\n",
					now, ci, kinds, out.Enforced, out.Restored, out.Insufficient, out.EnforceErrors)
			}
			if out.Enforced > 0 && firstEnforce < 0 && now >= cfg.FailAt {
				firstEnforce = now - cfg.FailAt
			}
			if out.Insufficient {
				res.Insufficient = true
			}
		}

		// Audit tick: the safety auditor sees the post-step world — the
		// same ordering a wall-clock deployment converges to, with the
		// monitoring loop sampling at least as often as the control loop.
		if cfg.Safety != nil {
			if sampler != nil {
				sampler.Tick(wall)
			}
			cfg.Safety.Tick(ctx, wall)
		}

		// The controllers may have actuated: the extents, the trip curve
		// and the timeline see the post-step world.
		truth.refresh(inactive)

		// Count action extents.
		shut, throttled := 0, 0
		for j, rs := range sims {
			st := truth.state[j]
			switch {
			case st == rackmgr.Off && rs.Category == workload.SoftwareRedundant:
				shut++
			case st == rackmgr.Throttled && rs.Category == workload.NonRedundantCapable:
				throttled++
			case st != rackmgr.On && rs.Category == workload.NonRedundantNonCapable:
				res.NonCapTouched++
			}
		}
		if shut > maxShut {
			maxShut = shut
		}
		if throttled > maxThrottled {
			maxThrottled = throttled
		}

		// Safety: overload accumulation vs trip curve.
		allUnder, tripped := truth.observeTrip(inactive, cfg.Tick)
		if tripped {
			res.Outage = true
		}
		if now > cfg.FailAt && now < cfg.RecoverAt && shavedAt < 0 && allUnder {
			shavedAt = now - cfg.FailAt
		}

		// Record the timeline.
		byCat := map[workload.Category]power.Watts{}
		for j, rs := range sims {
			byCat[rs.Category] += truth.rack[j]
		}
		res.Series = append(res.Series, TimePoint{
			T: now, Stage: stage, UPSPower: truth.ups, RackPower: byCat,
		})

		clk.Advance(cfg.Tick)
	}

	if srTotal > 0 {
		res.SRShutdownFrac = float64(maxShut) / float64(srTotal)
	}
	if capTotal > 0 {
		res.CapThrottledFrac = float64(maxThrottled) / float64(capTotal)
	}
	res.DetectionLatency = firstEnforce
	res.ShaveLatency = shavedAt
	res.BaselineP95 = stats.Percentile(latBase, 95)
	res.ThrottledP95 = stats.Percentile(latThrottled, 95)
	if res.BaselineP95 > 0 {
		res.P95IncreasePct = (res.ThrottledP95/res.BaselineP95 - 1) * 100
	}
	restored := true
	for _, st := range truth.state {
		if st != rackmgr.On {
			restored = false
		}
	}
	res.RestoredAll = restored
	return res, nil
}
