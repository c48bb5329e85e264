// Package emu reproduces the paper's end-to-end Flex-Online emulation
// (§V-C, Figure 13): a 4.8MW zero-reserved-power room of 360 emulated
// racks running synthetic workloads — a TeraSort-like batch job for the
// software-redundant workload and a latency-sensitive TPC-E-like OLTP
// workload for the non-redundant categories — placed by Flex-Offline-Short
// and driven through setup → normal operation → UPS failure → corrective
// action → recovery, with the real controller and telemetry code in the
// loop on a virtual clock.
//
// Run is that room, fully instrumented; RunFleet is N of them, each behind
// a fleet shard. Both are lists of phases over one kernel (kernel.go,
// truth.go): a placed plant, rooms of live racks with their ground truth,
// and a tick state whose methods — reaches, fail, recover, normals,
// advance, polls, enforced, settle, next — are, with the room's refresh
// and observe, the steps of the loop. An emulator keeps only its own
// control plane between them. The run's noise is drawn a block ahead on a
// goroutine of its own, and RunFleet spreads each tick's room-local phases
// over GOMAXPROCS workers; neither changes a bit of what a run computes.
// DESIGN.md ("Emulation") has the order of draws and events that the
// golden tests pin.
package emu

import (
	"context"
	"fmt"
	"slices"
	"time"

	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/replay"
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
	// virtual clock, after telemetry pumps and controller steps. Run
	// scrapes no registry into the auditor's store: the auditor decides
	// every objective from its own series, and a tsdb sampler runs only
	// where a caller (flexbench, tests) ticks one itself.
	Safety *slo.Auditor
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
	// RackPower is the total rack power by category (Figure 13b),
	// indexed by workload.Category; a category with no rack reads 0.
	RackPower [3]power.Watts
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
	// Outage reports whether a loaded PDU-pair lost both of its UPSes,
	// what CascadeOutcome.Outage means: an overload outlasted a survivor's
	// trip curve and the trip cascaded (must be false).
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

// Run executes the emulation. ctx bounds the offline placement solve and
// is threaded to the controller's planning passes.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	p, err := newPlant(ctx, cfg.TraceSeed, cfg.Utilization, cfg.Obs)
	if err != nil {
		return nil, err
	}
	topo := p.topo
	if err := checkIndices(indexCheck{"FailUPS", int(cfg.FailUPS), len(topo.UPSes)}); err != nil {
		return nil, err
	}
	ts := p.newTickState(cfg.Seed, cfg.Tick, cfg.Duration, 0.08, 0.020) // AR(1) θ, σ
	rm := ts.newRoom()
	clk, mgr, truth := ts.clk, rm.mgr, &rm.truth
	if cfg.Obs != nil {
		mgr.Metrics = rackmgr.NewMetrics(cfg.Obs)
	}
	mgr.Recorder = cfg.Recorder

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
	// A rack poll goes into the view as one batch, built once: a rack meter
	// emits nothing when read, so reading them all and then installing them
	// all leaves the event stream where a read and an update per rack had it.
	// The UPS poll cannot do the same — a consensus meter's read emits the
	// round's consensus events, which belong before its own arrival and after
	// the previous UPS's.
	rackMeters := make([]*telemetry.SimMeter, len(p.ids))
	rackPoll := make([]telemetry.Sample, len(p.ids))
	for i, id := range p.ids {
		rackMeters[i] = telemetry.NewSimMeter(id,
			func() power.Watts { return truth.rack[i] },
			telemetry.SimMeterConfig{Noise: 0.01, Seed: cfg.Seed + 1000 + int64(i)})
		rackPoll[i].Device = id
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
			Racks:    p.managed,
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
	if cfg.Safety != nil {
		cfg.Safety.Bind(slo.Bindings{
			Clock:            clk,
			Topo:             topo,
			Racks:            p.managed,
			UPSView:          upsView,
			RackView:         rackView,
			Controllers:      ctls,
			Scenario:         *cfg.Scenario,
			Buffer:           controller.DefaultBuffer(topo),
			AllocatablePower: p.room.AllocatablePower(),
			Stages:           stages,
		})
	}

	// The episode log leads with its replay header: everything the event
	// stream cannot carry (room, scenario, managed racks) pinned up front
	// so cmd/flexreplay can rebuild the controllers' exact PlanInputs.
	if cfg.Recorder != nil {
		hdr := replay.NewHeader("emulation", clk.Now(), cfg.Scenario.Name, 0, p.managed)
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

	res := &Result{Series: make([]TimePoint, 0, ts.last+1)}
	var catRacks [3]int // racks per workload.Category
	for _, c := range p.cat {
		catRacks[c]++
	}
	srTotal, capTotal := catRacks[workload.SoftwareRedundant], catRacks[workload.NonRedundantCapable]
	maxShut, maxThrottled := 0, 0

	// A tick draws a normal per rack for the demand, then one per cap-able
	// rack for the OLTP model.
	stop := ts.drawAhead(len(p.ids) + capTotal)
	defer stop()

	// One latency sample per cap-able rack per tick: baseline over the
	// normal stage, throttled (at most) over the failover stage. The two
	// never fill at once, so one tail serves both: the first tick past
	// the normal stage reads the baseline P95 and empties it, and latP95
	// names the result lats fills. A stage adds at most
	// stageSamples(stage) values, and the tail, made for the larger of the
	// two bounds, keeps only a tenth of that many of the largest values it
	// is given: enough to hold the ranks the P95 reads. Bounded by the
	// stage boundaries, never by Duration: a year-long run still has a
	// six-minute failover.
	stageSamples := func(stage time.Duration) int { return capTotal * (int(max(stage, 0)/cfg.Tick) + 1) }
	lats := stats.NewTail(max(stageSamples(cfg.FailAt-2*time.Minute), stageSamples(cfg.RecoverAt-cfg.FailAt)), 95)
	latP95 := &res.BaselineP95

	for ; ts.i <= ts.last; ts.next() {
		now := ts.now
		stage := StageSetup
		target := cfg.Utilization
		switch {
		case now < 2*time.Minute:
			target = cfg.Utilization * (0.25 + 0.75*now.Seconds()/120)
		case now < cfg.FailAt:
			stage = StageNormal
		case now < cfg.RecoverAt:
			stage = StageFailover
		default:
			stage = StageRecovery
		}
		if latP95 == &res.BaselineP95 && (stage == StageFailover || stage == StageRecovery) {
			*latP95 = lats.Percentile()
			latP95 = &res.ThrottledP95
		}

		if ts.reaches(cfg.FailAt) {
			ts.fail(rm, cfg.FailUPS)
			cfg.Recorder.Emit(recorder.Event{Type: recorder.TypeUPSFail, Time: clk.Now(), Actor: "emu", Subject: topo.UPSes[cfg.FailUPS].Name})
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
		if ts.reaches(cfg.RecoverAt) {
			ts.recover(rm, cfg.FailUPS)
			cfg.Recorder.Emit(recorder.Event{Type: recorder.TypeUPSRecover, Time: clk.Now(), Actor: "emu", Subject: topo.UPSes[cfg.FailUPS].Name})
		}

		z := ts.normals()
		ts.advance(rm, target, z)
		rm.refresh()

		// TPC-E-like latency model for cap-able racks: capping below the
		// demanded power queues requests and inflates tail latency.
		oltp := z[len(p.ids):]
		for j, c := range p.cat {
			if c != workload.NonRedundantCapable {
				continue
			}
			st, cap := truth.state[j], truth.cap[j]
			base := 1.0 + 0.02*oltp[0]
			oltp = oltp[1:]
			lat := base
			throttledNow := st == rackmgr.Throttled
			if throttledNow {
				demand := rm.demand[j] * p.alloc[j]
				if demand > float64(cap) && cap > 0 {
					over := (demand - float64(cap)) / float64(cap)
					lat = base * (1 + 0.42*over)
					if inc := (lat/base - 1) * 100; inc > res.WorstIncreasePct {
						res.WorstIncreasePct = inc
					}
				}
			}
			if (stage == StageFailover && throttledNow) || stage == StageNormal {
				lats.Add(lat)
			}
		}

		// Telemetry pumps on their cadences.
		wall := clk.Now()
		pollUPS, pollRacks := ts.polls()
		if pollUPS {
			for u, lm := range upsMeters {
				v, err := lm.Read(wall)
				upsView.Update(telemetry.Sample{
					Device: topo.UPSes[u].Name, Power: v, Valid: err == nil, MeasuredAt: wall,
				})
			}
		}
		if pollRacks {
			for j, m := range rackMeters {
				v, err := m.Read(wall)
				s := &rackPoll[j]
				s.Power, s.Valid, s.MeasuredAt = v, err == nil, wall
			}
			rackView.UpdateBatch(rackPoll, time.Time{})
		}

		// Controllers evaluate.
		for _, c := range ctls {
			out := c.StepContext(ctx)
			ts.enforced(rm, out.Enforced)
			if out.Insufficient {
				res.Insufficient = true
			}
		}

		// Audit tick: the safety auditor sees the post-step world — the
		// same ordering a wall-clock deployment converges to, with the
		// monitoring loop sampling at least as often as the control loop.
		if cfg.Safety != nil {
			cfg.Safety.Tick(ctx, wall)
		}

		rm.observe(ts.step)
		for u := range topo.UPSes {
			if rm.tripped.Has(power.UPSID(u)) {
				cfg.Recorder.Emit(recorder.Event{Type: recorder.TypeUPSFail, Time: clk.Now(), Actor: "emu", Subject: topo.UPSes[u].Name, Detail: "trip"})
			}
		}
		ts.settle(rm)

		// Count action extents.
		shut, throttled := 0, 0
		for j, c := range p.cat {
			st := truth.state[j]
			switch {
			case st == rackmgr.Off && c == workload.SoftwareRedundant:
				shut++
			case st == rackmgr.Throttled && c == workload.NonRedundantCapable:
				throttled++
			case st != rackmgr.On && c == workload.NonRedundantNonCapable:
				res.NonCapTouched++
			}
		}
		if shut > maxShut {
			maxShut = shut
		}
		if throttled > maxThrottled {
			maxThrottled = throttled
		}

		// Record the timeline: rack power by category.
		pt := TimePoint{T: now, Stage: stage, UPSPower: slices.Clone(truth.ups)}
		for j, c := range p.cat {
			pt.RackPower[c] += truth.rack[j]
		}
		res.Series = append(res.Series, pt)
	}

	if srTotal > 0 {
		res.SRShutdownFrac = float64(maxShut) / float64(srTotal)
	}
	if capTotal > 0 {
		res.CapThrottledFrac = float64(maxThrottled) / float64(capTotal)
	}
	res.DetectionLatency = ts.firstEnforce
	res.ShaveLatency = ts.shedAt
	res.Outage = ts.outage
	*latP95 = lats.Percentile()
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
