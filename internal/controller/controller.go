package controller

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
)

// Config assembles one Flex-Online controller instance. Flex runs several
// instances in a multi-primary configuration on separate fault domains;
// because actions are idempotent, the instances need no coordination
// (paper §IV-D). What is shed is the actuator's record, not any instance's:
// every instance plans and restores from it, so one may restart at any time.
type Config struct {
	Name string
	// Clock times the rounds (default wall clock).
	Clock clock.Clock
	Topo  *power.Topology
	Racks []ManagedRack
	// UPSView/RackView are the telemetry snapshots the controller reads;
	// their owner installs readings into them (the emulator from its
	// meters, a fleet shard from its subscriptions).
	UPSView  *telemetry.LatestPower
	RackView *telemetry.LatestPower
	// Actuator enforces actions and keeps the record of what is shed.
	Actuator *rackmgr.Manager
	// Scenario supplies impact functions.
	Scenario impact.Scenario
	// Buffer is the safety margin below UPS capacity (default 1% of the
	// smallest UPS capacity).
	Buffer power.Watts
	// Metrics, when non-nil, records step outcomes and the shed-latency
	// histograms. Multi-primary instances of one room may share an
	// instance; the counters aggregate.
	Metrics *Metrics
	// Tracer, when non-nil, records a detect→plan→act trace for every
	// round that observes an overdraw. When the triggering UPS sample
	// carries ingest stamps, the trace opens at the sample's MeasuredAt
	// with sample/queue/view spans ahead of detect — the full
	// meter-to-actuation waterfall.
	Tracer *obs.Tracer
	// Stages, when non-nil, receives per-stage critical-path latencies
	// (sample/queue/view/detect/plan/act) for every completed overdraw
	// round, each observation carrying an exemplar joining it to the
	// episode, trace, and detect event. Fleet controllers share one
	// instance per fleet so the histograms aggregate.
	Stages *obs.StageMetrics
	// Recorder, when non-nil, logs the causal event chain of every
	// overdraw round — detect (caused by the UPS sample-arrive event it
	// read), plan start/commit/abort, each planned action, and the
	// actuations they dispatch — under a per-episode ID allocated from
	// the recorder. Traces started by Tracer carry the same episode ID,
	// so traces and recorded events are joinable.
	Recorder *recorder.Recorder
}

// StepOutcome describes one evaluation round.
type StepOutcome struct {
	// Overdraw is true when some UPS exceeded limit−buffer.
	Overdraw bool
	// Planned actions this round. Nil when there was no overdraw — and
	// also on overdraw rounds that defer on stale telemetry or whose Plan
	// call fails, so Overdraw && Planned == nil does occur.
	Planned []PlannedAction
	// Enforced counts successfully enforced actions.
	Enforced int
	// EnforceErrors counts actuation failures.
	EnforceErrors int
	// Insufficient is true when shaveable power ran out before safety.
	Insufficient bool
	// Restored counts racks restored during recovery.
	Restored int
}

// Controller is one Flex-Online primary.
type Controller struct {
	cfg Config

	mu    sync.Mutex
	steps int
	// lastEnforceAt is when this instance last enforced an action, which
	// closes an episode's shed latency.
	lastEnforceAt time.Time
	// overdrawSince is when the current overdraw episode was first seen
	// (zero when no episode is open); episodeActed records whether this
	// instance enforced anything during it. Together they drive the
	// first-action and shed-latency histograms.
	overdrawSince time.Time
	episodeActed  bool
	// episode is the flight-recorder episode ID of the open overdraw
	// episode (0 when none is open or no recorder is wired).
	episode uint64
}

// DefaultInactiveThreshold is the capacity fraction below which a UPS is
// considered out of service.
const DefaultInactiveThreshold = 0.02

// planBudget bounds one Algorithm 1 planning pass: half of
// power.FlexLatencyBudget, leaving the other half for actuation. A pass
// that exceeds it is aborted and its partial plan enforced — a truncated
// plan still sheds real power inside the tolerance window.
const planBudget = power.FlexLatencyBudget / 2

// DefaultBuffer is the safety margin used when Config.Buffer is zero: 1%
// of the smallest UPS capacity. Exported so episode-log headers and
// replay reconstruct the same margin the controller ran with.
func DefaultBuffer(topo *power.Topology) power.Watts {
	min := topo.UPSes[0].Capacity
	for _, u := range topo.UPSes {
		if u.Capacity < min {
			min = u.Capacity
		}
	}
	return power.Watts(0.01 * float64(min))
}

// New creates a controller.
func New(cfg Config) *Controller {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Buffer == 0 {
		cfg.Buffer = DefaultBuffer(cfg.Topo)
	}
	return &Controller{cfg: cfg}
}

// upsSnapshot is one round's reading of the UPS view, in arrays so that a
// round lives on its caller's stack: a round without overdraw allocates
// nothing, and concurrent rounds share nothing.
type upsSnapshot struct {
	// power is the UPS power vector; UPSes without a reading are assumed at
	// full capacity (the safe direction: missing data must trigger shaving,
	// not mask an overload — §IV-C notes unreliable telemetry leads to
	// conservative action).
	power [power.MaxUPSes]power.Watts
	// events is the flight-recorder sample-arrive sequence per UPS (0 when
	// unrecorded), which roots the detect event's causal chain.
	events [power.MaxUPSes]uint64
	// newest is the newest measurement time, which gates re-enforcement
	// and restores.
	newest time.Time
}

// snapshotUPS reads the UPS view into s.
//
//flex:hotpath
func (c *Controller) snapshotUPS(s *upsSnapshot) {
	for u := range c.cfg.Topo.UPSes {
		if v, at, ev, ok := c.cfg.UPSView.GetEvent(c.cfg.Topo.UPSes[u].Name); ok {
			s.power[u] = v
			s.events[u] = ev
			if at.After(s.newest) {
				s.newest = at
			}
		} else {
			s.power[u] = c.cfg.Topo.UPSes[u].Capacity
		}
	}
}

// StepContext runs one evaluation round: read snapshots, detect overdraw,
// plan and enforce corrective actions; or, when the failed supply has
// returned and headroom allows, restore racks the record holds. Planning
// runs under ctx bounded by planBudget; an aborted pass enforces
// whatever partial plan it produced.
func (c *Controller) StepContext(ctx context.Context) (out StepOutcome) {
	defer func() { c.cfg.Metrics.recordStep(&out) }()

	stepStart := c.cfg.Clock.Now()

	c.mu.Lock()
	c.steps++
	c.mu.Unlock()

	// The handful of UPS readings decide whether this round plans at all;
	// the plan's inputs (inactive map, acted set, rack powers, a copy of
	// the readings) are built only once it does.
	var snap upsSnapshot
	c.snapshotUPS(&snap)
	ups := snap.power[:len(c.cfg.Topo.UPSes)]
	inactive := InferInactiveSet(c.cfg.Topo, ups, DefaultInactiveThreshold)

	over := false
	worst := -1
	var worstExcess power.Watts
	for u := range c.cfg.Topo.UPSes {
		if inactive.Has(power.UPSID(u)) {
			continue
		}
		if excess := ups[u] - (c.cfg.Topo.UPSes[u].Capacity - c.cfg.Buffer); excess > 0 {
			over = true
			if worst < 0 || excess > worstExcess {
				worst, worstExcess = u, excess
			}
		}
	}

	rec := c.cfg.Recorder
	if over {
		out.Overdraw = true
		now := c.cfg.Clock.Now()
		c.mu.Lock()
		newEpisode := c.overdrawSince.IsZero()
		if newEpisode {
			c.overdrawSince = now
			c.episodeActed = false
		}
		episode := c.episode
		c.mu.Unlock()
		if newEpisode {
			c.cfg.Metrics.incEpisode()
			episode = rec.NextEpisode() // 0 when unrecorded
			c.mu.Lock()
			c.episode = episode
			c.mu.Unlock()
		}
		var detectSeq uint64
		if rec != nil {
			detectSeq = rec.Emit(recorder.Event{
				Type:    recorder.TypeOverdrawDetect,
				Time:    now,
				Actor:   c.cfg.Name,
				Subject: c.cfg.Topo.UPSes[worst].Name,
				Value:   float64(ups[worst]),
				Score:   float64(c.cfg.Topo.UPSes[worst].Capacity),
				Cause:   snap.events[worst],
				Episode: episode,
			})
		}
		// The round's instants, each read once: the ingest stamps of the
		// sample that triggered detection open the waterfall (how old the
		// reading already was when this round looked at it), respond adds
		// plan end and act end. The trace and the stage metrics are both
		// this array.
		stamps, _ := c.cfg.UPSView.GetStamps(c.cfg.Topo.UPSes[worst].Name)
		b := obs.StageBounds{stamps.MeasuredAt, stamps.PublishedAt, stamps.DequeuedAt, stepStart, now}
		traceStart := stepStart
		if !stamps.MeasuredAt.IsZero() {
			traceStart = stamps.MeasuredAt
		}
		tr := c.cfg.Tracer.Start("flex-online/"+c.cfg.Name, traceStart)
		tr.Join(episode, detectSeq)
		note := c.respond(ctx, &out, &b, slices.Clone(ups), inactiveMap(inactive, len(ups)), snap.newest, episode, detectSeq)
		tr.FinishRound(&b, note)
		if !b[obs.NumStages].IsZero() { // the round got as far as acting
			c.cfg.Stages.ObserveRound(&b, obs.Exemplar{Episode: episode, Trace: tr.ID(), Seq: detectSeq})
		}
		return out
	}

	// No overdraw: close any open episode and record how long detection to
	// the final enforcement took — the latency that must fit the 10s UPS
	// overload tolerance.
	c.mu.Lock()
	since := c.overdrawSince
	episodeActed := c.episodeActed
	last := c.lastEnforceAt
	episode := c.episode
	c.overdrawSince = time.Time{}
	c.episodeActed = false
	c.episode = 0
	c.mu.Unlock()
	shed := !since.IsZero() && episodeActed && !last.Before(since)
	if shed {
		c.cfg.Metrics.observeShed(last.Sub(since))
	}
	if rec != nil && !since.IsZero() {
		e := recorder.Event{
			Type:    recorder.TypeEpisodeClose,
			Time:    c.cfg.Clock.Now(),
			Actor:   c.cfg.Name,
			Episode: episode,
		}
		if shed {
			e.Value = last.Sub(since).Seconds()
		}
		rec.Emit(e)
	}

	// Recovery: when no UPS is inactive, restore as many shed racks as
	// the measured headroom safely allows — all of them after the failed
	// supply returns and load normalizes (paper Figure 13, stages F–G),
	// or a partial subset when the power draw merely "falls
	// significantly" during a long maintenance window (§IV-D: "some power
	// caps may be lifted or servers restored to reduce the impact"). Only
	// a reading newer than the record's last change may size a restore:
	// an older one does not show what was last restored, and projecting
	// from it again would restore twice.
	record, changed := c.cfg.Actuator.Record()
	if len(record) == 0 || inactive != 0 || !snap.newest.After(changed) {
		return out
	}
	// Restore cheapest-impact actions first: throttled racks before shut
	// down ones (lifting a cap is instantaneous and risk-free; a restart
	// adds inrush and boot time), then by recovered power ascending so
	// marginal headroom frees the most racks.
	restoreSet := slices.Clone(record)
	slices.SortFunc(restoreSet, func(a, b rackmgr.Entry) int {
		return cmp.Or(cmp.Compare(a.State, b.State), cmp.Compare(a.Recovered, b.Recovered), strings.Compare(a.Rack, b.Rack))
	})
	var projA, candA [power.MaxUPSes]power.Watts
	proj, cand := projA[:len(ups)], candA[:len(ups)]
	copy(proj, ups)
	for _, a := range restoreSet {
		// Would returning this rack's power to the pair it was shed from
		// keep every UPS safe?
		copy(cand, proj)
		applyRecovery(c.cfg.Topo, cand, nil, a.Pair, -a.Recovered)
		safe := true
		for u := range c.cfg.Topo.UPSes {
			if cand[u] > c.cfg.Topo.UPSes[u].Capacity-c.cfg.Buffer {
				safe = false
				break
			}
		}
		if !safe {
			continue
		}
		if err := c.cfg.Actuator.RestoreOp(a.Rack, rackmgr.Op{Actor: c.cfg.Name}); err != nil {
			out.EnforceErrors++
			continue
		}
		proj, cand = cand, proj
		out.Restored++
	}
	return out
}

// respond is the rest of an overdraw round once detection is recorded:
// defer on stale telemetry, else plan and enforce. It fills in out, stamps
// plan end and act end into b as it reaches them, and returns the round's
// trace note.
func (c *Controller) respond(ctx context.Context, out *StepOutcome, b *obs.StageBounds, ups []power.Watts, inactive map[power.UPSID]bool, measuredAt time.Time, episode, detectSeq uint64) (note string) {
	rec := c.cfg.Recorder
	now := b[obs.StagePlan]
	// Do not pile further actions onto a snapshot that predates the
	// record's last change, whichever primary made it: the measurements
	// do not yet reflect the power already shed, and re-planning on them
	// overcorrects far beyond the paper's benign idempotent-duplicate
	// case. Wait for fresh telemetry (≤1.5s, §IV-D) instead — still well
	// inside the 10-second budget.
	record, changed := c.cfg.Actuator.Record()
	if len(record) > 0 && !measuredAt.After(changed) {
		c.cfg.Metrics.incStaleSkip()
		if rec != nil {
			rec.Emit(recorder.Event{
				Type:    recorder.TypeStaleSkip,
				Time:    now,
				Actor:   c.cfg.Name,
				Cause:   detectSeq,
				Episode: episode,
			})
		}
		return "stale-skip"
	}
	acted := make(map[string]bool, len(record))
	for _, e := range record {
		acted[e.Rack] = true
	}
	rackPower := c.cfg.RackView.Snapshot()
	var planSeq uint64
	if rec != nil {
		planSeq = rec.Emit(recorder.Event{
			Type:    recorder.TypePlanStart,
			Time:    now,
			Actor:   c.cfg.Name,
			Cause:   detectSeq,
			Episode: episode,
			Aux:     int64(len(acted)),
		})
	}
	planCtx, cancelPlan := context.WithTimeout(ctx, planBudget)
	actions, insufficient, err := PlanContext(planCtx, PlanInput{
		Topo:      c.cfg.Topo,
		Racks:     c.cfg.Racks,
		UPSPower:  ups,
		RackPower: rackPower,
		Inactive:  inactive,
		Scenario:  c.cfg.Scenario,
		Buffer:    c.cfg.Buffer,
		Acted:     acted,
	})
	aborted := err != nil && planCtx.Err() != nil
	cancelPlan()
	planEnd := c.cfg.Clock.Now()
	b[obs.StageAct] = planEnd
	if aborted {
		// Budget (or the caller's ctx) expired mid-plan: keep the
		// partial plan — enforcing what Algorithm 1 got to beats
		// enforcing nothing inside the tolerance window.
		c.cfg.Metrics.incPlanAbort()
		note = "plan-abort"
	} else if err != nil {
		c.cfg.Metrics.incPlanError()
		if rec != nil {
			rec.Emit(recorder.Event{
				Type:    recorder.TypePlanError,
				Time:    planEnd,
				Actor:   c.cfg.Name,
				Cause:   planSeq,
				Episode: episode,
				Detail:  err.Error(),
			})
		}
		return "plan-error"
	}
	out.Planned = actions
	out.Insufficient = insufficient
	if insufficient {
		note = "insufficient"
	}
	var plannedSeqs []uint64
	if rec != nil {
		plannedSeqs = make([]uint64, len(actions))
		var total float64
		for i, a := range actions {
			total += float64(a.Recovered)
			plannedSeqs[i] = rec.Emit(recorder.Event{
				Type:    recorder.TypeActionPlanned,
				Time:    planEnd,
				Actor:   c.cfg.Name,
				Subject: a.Rack,
				Value:   float64(a.Recovered),
				Score:   a.Impact,
				Aux:     int64(a.Kind),
				Detail:  a.Workload,
				Cause:   planSeq,
				Episode: episode,
			})
		}
		commit := recorder.Event{
			Type:    recorder.TypePlanCommit,
			Time:    planEnd,
			Actor:   c.cfg.Name,
			Cause:   planSeq,
			Episode: episode,
			Aux:     int64(len(actions)),
			Value:   total,
		}
		if aborted {
			commit.Type = recorder.TypePlanAbort
		} else if insufficient {
			commit.Detail = "insufficient"
		}
		rec.Emit(commit)
	}
	for i, a := range actions {
		var err error
		op := rackmgr.Op{Actor: c.cfg.Name, Episode: episode, Pair: a.Pair, Recovered: a.Recovered}
		if plannedSeqs != nil {
			op.Cause = plannedSeqs[i]
		}
		switch a.Kind {
		case Shutdown:
			err = c.cfg.Actuator.ShutdownOp(a.Rack, op)
		case Throttle:
			err = c.cfg.Actuator.ThrottleOp(a.Rack, a.CapTarget, op)
		}
		if err != nil {
			out.EnforceErrors++
			continue
		}
		out.Enforced++
		enforcedAt := c.cfg.Clock.Now()
		c.mu.Lock()
		c.lastEnforceAt = enforcedAt
		first := !c.episodeActed
		c.episodeActed = true
		since := c.overdrawSince
		c.mu.Unlock()
		if first {
			c.cfg.Metrics.observeFirstAction(enforcedAt.Sub(since))
		}
	}
	b[obs.NumStages] = c.cfg.Clock.Now()
	return note
}

// OpenEpisode reports the controller's open overdraw episode: the
// flight-recorder episode ID (0 when unrecorded), when the overdraw was
// first observed, and whether an episode is open at all. The SLO
// auditor reads this to attribute shed-budget burn to the episode its
// breach events must join.
func (c *Controller) OpenEpisode() (id uint64, since time.Time, open bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.episode, c.overdrawSince, !c.overdrawSince.IsZero()
}

// Record returns the actuator's record of what is shed and the time it
// last changed (rackmgr.Manager.Record). Every primary of a room acts
// through one actuator, so any one's record is the room's. The auditor
// reads it to credit per-UPS headroom with the racks shed after the UPS
// readings were taken.
func (c *Controller) Record() ([]rackmgr.Entry, time.Time) {
	return c.cfg.Actuator.Record()
}
