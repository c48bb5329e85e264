// Package slo is Flex's continuous safety auditor: it turns the paper's
// operating invariants into burn-rate SLOs evaluated against live
// telemetry, so "would this room survive a UPS failure right now?" is a
// monitored quantity with alerting semantics, not a post-hoc replay
// question.
//
// Each audit tick derives the safety quantities the invariants are
// stated over — per-UPS headroom under the committed plan, room stranded
// power (paper Eq. 5), and the shed-latency budget burn of any open overdraw episode — stores them as
// tsdb series, and evaluates four objectives:
//
//	shed-budget        open overdraw episodes must clear inside the 10s
//	                   detect→act budget (power.FlexLatencyBudget)
//	ups-freshness      the stalest UPS reading stays under the freshness
//	                   threshold (paper §IV-D: ≤1.5s UPS telemetry)
//	rack-freshness     likewise for rack readings (≤2s cadence)
//	probe-feasibility  the continuous what-if probe: for every active
//	                   UPS u, re-run Algorithm 1 against live telemetry
//	                   assuming u just failed — a feasible shed plan must
//	                   exist inside the planning budget
//	stage-budget       every critical-path stage's largest latency stays
//	                   inside its carve of the 10s budget (StageBudgets);
//	                   requires Bindings.Stages
//
// Breaches and recoveries are emitted as flight-recorder events
// (slo-breach / slo-recover / probe-fail) carrying the open episode ID,
// so the recorded log joins an SLO breach to the exact overdraw episode
// that burned the budget. Status and Health (ready/degraded/unsafe with
// reasons) snapshot the auditor; `flexsim -experiment episode -slo` prints
// them as a summary.
//
// The auditor runs at a faster timescale than the control loop it
// audits (the VPP multi-timescale argument): Tick is synchronous, and the
// emulator drives it on the virtual clock every emulation tick.
// Everything is clock-injected.
//
// That argument only holds while an audit tick costs less than the
// control step it watches, so the steady-state tick — no probe due, no
// breach or health transition — allocates nothing: the derived series are
// appended in place, each objective counts its two burn-rate windows in a
// ring of its own (burnWindow: push the tick, pop what has aged out, divide
// two integers — exact, since the indicator is 0 or 1, where a mean over
// stored points is a scan), the stage digest is six counters and six
// maxima, and the per-tick scratch is sized once, the rings at NewAuditor
// and the rest at Bind. A what-if probe round (every ProbeEvery) runs
// Algorithm 1 per UPS on a controller.Planner prepared at Bind, all
// plans into one action buffer, over pair loads and inactive sets that are
// Bind-time scratch too: what a round still allocates is FailoverLoads'
// result per UPS and, where that failover needs a plan, the plan's budget
// (context.WithTimeout). Breach, recovery and health transitions allocate
// their events and reasons.
package slo

import (
	"context"
	"sort"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/tsdb"
	"flex/internal/power"
	"flex/internal/telemetry"
)

// Derived-series names. Labeled series use the expvar/tsdb key
// convention `name;label=value`.
const (
	SeriesUPSHeadroom   = "flex_safety_ups_headroom_watts"    // ;ups=<name>
	SeriesStrandedPower = "flex_safety_stranded_power_watts"  //
	SeriesBudgetBurn    = "flex_safety_budget_burn_ratio"     //
	SeriesTelemetryAge  = "flex_safety_telemetry_age_seconds" // ;view=ups|rack
	SeriesObjectiveBad  = "flex_slo_bad"                      // ;objective=<name>
	SeriesProbeFeasible = "flex_probe_feasible"               //
	SeriesProbeLatency  = "flex_probe_latency_seconds"        //
)

// Objective names.
const (
	ObjShedBudget  = "shed-budget"
	ObjUPSFresh    = "ups-freshness"
	ObjRackFresh   = "rack-freshness"
	ObjProbe       = "probe-feasibility"
	ObjStageBudget = "stage-budget"
)

// StageBudgets carves the 10s detect→act budget (power.FlexLatencyBudget)
// into per-stage sub-budgets — the latency SLO each critical-path stage
// is held to. The carve reflects where a healthy deployment spends the
// window: most of it on telemetry cadence (sample), the rest split across
// ingest, view merge, and the controller's detect/plan/act compute. The
// entries sum exactly to the full budget, so "every stage within its
// sub-budget" implies "the end-to-end path within the window".
func StageBudgets() [obs.NumStages]time.Duration {
	var b [obs.NumStages]time.Duration
	b[obs.StageSample] = 3 * time.Second
	b[obs.StageQueue] = 1500 * time.Millisecond
	b[obs.StageView] = 1500 * time.Millisecond
	b[obs.StageDetect] = time.Second
	b[obs.StagePlan] = 2 * time.Second
	b[obs.StageAct] = time.Second
	return b
}

// The burn-rate objectives and the probe's planning budget.
const (
	// FastWindow / SlowWindow are the burn-rate windows.
	FastWindow = time.Minute
	SlowWindow = 5 * time.Minute
	// Target is the objective availability target: 99% of audit ticks
	// healthy, i.e. a 1% error budget. It is typed so that 1 − Target is
	// the float64 difference (0.010000000000000009), not an exact 0.01.
	Target float64 = 0.99
	// BreachBurn is the fast-window burn-rate multiple that trips a
	// breach: burning the error budget at 1× means the budget exactly
	// runs out over the window.
	BreachBurn = 1.0
	// ProbeBudget bounds one probe planning pass per UPS: the same budget
	// the live controller plans under, so probe feasibility implies live
	// feasibility.
	ProbeBudget = power.FlexLatencyBudget / 2
)

// Defaults.
const (
	// DefaultFreshness is the telemetry-freshness threshold: the paper
	// targets sub-second sample propagation, but readings refresh at the
	// poll cadence, so deployments with slower pollers must raise the
	// per-view thresholds above their cadence to avoid constant burn.
	DefaultFreshness = time.Second
	// DefaultProbeEvery is the what-if probe cadence. Probing is a full
	// Algorithm 1 pass per active UPS, so it runs sparser than the audit
	// tick.
	DefaultProbeEvery = 5 * time.Second
	// auditTick is the tick period the burn windows' rings are first
	// sized for: the emulator audits every 500ms. A faster caller grows
	// them once.
	auditTick = 500 * time.Millisecond
)

// Config sizes an Auditor. Store is required; everything else defaults.
type Config struct {
	Store    *tsdb.Store
	Recorder *recorder.Recorder // optional: breach/recover/probe-fail events
	// UPSFreshness / RackFreshness override DefaultFreshness per view.
	UPSFreshness, RackFreshness time.Duration
	// ProbeEvery is the what-if probe cadence (0 = DefaultProbeEvery,
	// negative = disable probing).
	ProbeEvery time.Duration
}

// Bindings attaches the auditor to a running control plane. All fields
// are required except Controllers (without controllers the shed-budget
// objective idles).
type Bindings struct {
	Clock clock.Clock
	Topo  *power.Topology
	Racks []controller.ManagedRack
	// UPSView / RackView are the same telemetry views the controllers
	// read.
	UPSView, RackView *telemetry.LatestPower
	// Controllers are the room's Flex-Online primaries; the auditor
	// reads their open-episode state and committed plans.
	Controllers []*controller.Controller
	// Scenario and Buffer mirror the controllers' planning inputs; the
	// probe plans with them.
	Scenario impact.Scenario
	Buffer   power.Watts
	// AllocatablePower is the room's allocatable power (Eq. 5's minuend).
	AllocatablePower power.Watts
	// Stages, when non-nil, are the per-stage critical-path latencies
	// the controllers feed (controller.Config.Stages); the stage-budget
	// objective audits their maxima against StageBudgets and
	// Status.Stages exports the breakdown.
	Stages *obs.StageMetrics
}

// objective tracks one SLO's bad indicator — its tsdb series and the
// window its burn rates are counted over — and breach state.
type objective struct {
	name   string
	series *tsdb.Series
	window burnWindow
	// immediate objectives breach on the raw indicator (edge-triggered)
	// instead of the windowed burn rate.
	immediate bool

	bad       bool
	fastBurn  float64
	slowBurn  float64
	breached  bool
	breachSeq uint64 // recorder seq of the open breach event
	episode   uint64 // episode attributed to the open breach
}

// Auditor is the continuous safety auditor. Construct with NewAuditor,
// attach to a control plane with Bind, then drive Tick. All methods are
// safe for concurrent use.
type Auditor struct {
	cfg Config

	mu    sync.Mutex
	b     Bindings
	bound bool

	objectives []*objective
	byName     map[string]*objective

	// pre-created derived series (cold-path get-or-create at Bind time).
	stranded   *tsdb.Series
	budgetBurn *tsdb.Series
	upsAge     *tsdb.Series
	rackAge    *tsdb.Series
	headroom   []*tsdb.Series // per UPS, topo order
	probeFeas  *tsdb.Series
	probeLat   *tsdb.Series

	// rack → pair mapping for committed-plan headroom attribution.
	rackPair map[string]power.PDUPairID
	// strandedW is the room's Eq. 5 stranded power: allocatable minus the
	// managed racks' allocations, both fixed by Bind.
	strandedW power.Watts

	// Per-tick scratch, sized at Bind and reused under mu: the UPS view as
	// read this tick (upsAt is the zero time for a UPS without a reading),
	// the pending recovery per UPS with its rack dedup set, and the rack
	// view as the probe plans from it.
	upsPower  []power.Watts
	upsAt     []time.Time
	pending   []power.Watts
	seenRack  map[string]bool
	rackPower map[string]power.Watts

	// The what-if probe's Algorithm 1, prepared once for the bound racks,
	// with what every round reuses: the action buffer the plans share, the
	// pair loads, and per UPS the "only this one is out" set it plans under.
	planner  *controller.Planner
	planBuf  []controller.PlannedAction
	pairLoad power.PairLoad
	failed   []map[power.UPSID]bool

	lastEpisode uint64 // newest episode ID observed open
	budgetRatio float64

	lastProbe    time.Time
	probeRounds  uint64
	probeFails   uint64
	cleanRounds  uint64 // consecutive probe-fail-free rounds
	lastInfeas   []string
	lastProbeDur time.Duration

	health      State
	healthSince time.Time
	reasons     []string
	transitions []Transition

	ticks uint64
}

// NewAuditor constructs an auditor over st. Panics when cfg.Store is nil
// (a programming error, like registering on a nil registry).
func NewAuditor(cfg Config) *Auditor {
	if cfg.Store == nil {
		panic("slo: NewAuditor requires a Store")
	}
	if cfg.UPSFreshness <= 0 {
		cfg.UPSFreshness = DefaultFreshness
	}
	if cfg.RackFreshness <= 0 {
		cfg.RackFreshness = DefaultFreshness
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	a := &Auditor{
		cfg:        cfg,
		byName:     make(map[string]*objective),
		health:     StateDegraded,
		reasons:    []string{"auditor not bound to a control plane"},
		stranded:   cfg.Store.Series(SeriesStrandedPower),
		budgetBurn: cfg.Store.Series(SeriesBudgetBurn),
		upsAge:     cfg.Store.Series(tsdb.SeriesKey(SeriesTelemetryAge, [2]string{"view", "ups"})),
		rackAge:    cfg.Store.Series(tsdb.SeriesKey(SeriesTelemetryAge, [2]string{"view", "rack"})),
		probeFeas:  cfg.Store.Series(SeriesProbeFeasible),
		probeLat:   cfg.Store.Series(SeriesProbeLatency),
	}
	for _, o := range []struct {
		name      string
		immediate bool
	}{
		{ObjShedBudget, false},
		{ObjUPSFresh, false},
		{ObjRackFresh, false},
		{ObjProbe, true},
		{ObjStageBudget, false},
	} {
		ob := &objective{
			name:      o.name,
			immediate: o.immediate,
			series:    cfg.Store.Series(tsdb.SeriesKey(SeriesObjectiveBad, [2]string{"objective", o.name})),
			window:    newBurnWindow(FastWindow, SlowWindow, auditTick),
		}
		a.objectives = append(a.objectives, ob)
		a.byName[o.name] = ob
	}
	return a
}

// Bind attaches the auditor to a control plane. Call once at wiring
// time, before ticking begins.
func (a *Auditor) Bind(b Bindings) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.b = b
	a.bound = true
	a.rackPair = make(map[string]power.PDUPairID, len(b.Racks))
	var allocated power.Watts
	for _, r := range b.Racks {
		a.rackPair[r.ID] = r.Pair
		allocated += r.Allocated
	}
	a.strandedW = max(b.AllocatablePower-allocated, 0)
	n := len(b.Topo.UPSes)
	a.upsPower = make([]power.Watts, n)
	a.upsAt = make([]time.Time, n)
	a.pending = make([]power.Watts, n)
	a.seenRack = make(map[string]bool)
	a.rackPower = make(map[string]power.Watts, len(b.Racks))
	a.planner = controller.NewPlanner(b.Topo, b.Racks, b.Scenario)
	a.pairLoad = power.NewPairLoad(b.Topo)
	a.failed = make([]map[power.UPSID]bool, n)
	a.headroom = a.headroom[:0]
	for u, ups := range b.Topo.UPSes {
		a.failed[u] = map[power.UPSID]bool{power.UPSID(u): true}
		a.headroom = append(a.headroom, a.cfg.Store.Series(
			tsdb.SeriesKey(SeriesUPSHeadroom, [2]string{"ups", ups.Name})))
	}
	var now time.Time
	if b.Clock != nil {
		now = b.Clock.Now()
	}
	a.setHealthLocked(now, StateReady, nil)
}

// Store returns the tsdb store the auditor writes its derived series
// to, so callers can share it with a registry sampler.
func (a *Auditor) Store() *tsdb.Store { return a.cfg.Store }

// Tick runs one audit round at time now: derive and store the safety
// series, evaluate every objective's burn rate, run the what-if probe
// when due, emit breach/recover/probe-fail events, and update the health
// verdict.
// ctx bounds the probe's planning passes.
//
// Tick is synchronous and deterministic under a virtual clock: the
// emulator calls it once per emulation tick after pumping telemetry and
// stepping the controllers. The burn-rate windows count on now never going
// back, and it does not: the emulators pass the virtual clock's time, which
// only advances.
func (a *Auditor) Tick(ctx context.Context, now time.Time) {
	a.mu.Lock()
	if !a.bound {
		a.setHealthLocked(now, StateDegraded, []string{"auditor not bound to a control plane"})
		a.mu.Unlock()
		return
	}
	a.ticks++
	b := a.b

	// ---- derived safety series -------------------------------------
	// Each UPS is read from the view once; everything below (headroom,
	// pending recovery, inferred failover, the probe) works from this copy.
	upsPower := a.upsPower
	var upsSeen int
	for u := range b.Topo.UPSes {
		var ok bool
		upsPower[u], a.upsAt[u], ok = b.UPSView.Get(b.Topo.UPSes[u].Name)
		if ok {
			upsSeen++
		} else {
			// Missing reading: assume full capacity (the controller's
			// conservative convention) so derived headroom reads zero,
			// not full.
			upsPower[u] = b.Topo.UPSes[u].Capacity
		}
	}
	inactive := controller.InferInactiveSet(b.Topo, upsPower, controller.DefaultInactiveThreshold)
	pending := a.pendingRecoveryLocked(inactive)
	for u := range b.Topo.UPSes {
		head := b.Topo.UPSes[u].Capacity - upsPower[u] + pending[u]
		a.headroom[u].Append(now, float64(head))
	}

	a.stranded.Append(now, float64(a.strandedW))

	// Shed-budget burn: the fraction of the 10s detect→act budget the
	// oldest open overdraw episode has consumed.
	var burn float64
	var openEpisode uint64
	episodeOpen := false
	for _, c := range b.Controllers {
		if id, since, open := c.OpenEpisode(); open {
			episodeOpen = true
			if r := float64(now.Sub(since)) / float64(power.FlexLatencyBudget); r > burn {
				burn = r
			}
			if id > openEpisode {
				openEpisode = id
			}
		}
	}
	if openEpisode != 0 {
		a.lastEpisode = openEpisode
	}
	a.budgetRatio = burn
	a.budgetBurn.Append(now, burn)

	upsOld, upsOK := b.UPSView.Oldest(now)
	rackOld, rackOK := b.RackView.Oldest(now)
	if upsOK {
		a.upsAge.Append(now, upsOld.Seconds())
	}
	if rackOK {
		a.rackAge.Append(now, rackOld.Seconds())
	}

	// ---- what-if probe ---------------------------------------------
	var events []recorder.Event
	probeDue := a.cfg.ProbeEvery > 0 &&
		(a.lastProbe.IsZero() || !now.Before(a.lastProbe.Add(a.cfg.ProbeEvery)))
	if probeDue {
		a.lastProbe = now
		if episodeOpen || inactive != 0 || upsSeen == 0 {
			// A real failure (or no telemetry yet) is in progress:
			// probing would model a double failure the paper's design
			// explicitly does not cover. Skip without touching the
			// feasibility series — absence of data, not feasibility.
		} else {
			res := a.probeLocked(ctx, now, upsPower)
			a.probeRounds++
			a.lastProbeDur = res.elapsed
			a.lastInfeas = res.infeasible
			a.probeLat.Append(now, res.elapsed.Seconds())
			if len(res.infeasible) == 0 {
				a.cleanRounds++
				a.probeFeas.Append(now, 1)
			} else {
				a.cleanRounds = 0
				a.probeFails++
				a.probeFeas.Append(now, 0)
				events = append(events, res.events...)
			}
			a.byName[ObjProbe].bad = len(res.infeasible) > 0
		}
	}

	// ---- objective evaluation --------------------------------------
	a.byName[ObjShedBudget].bad = episodeOpen
	a.byName[ObjUPSFresh].bad = upsOK && upsOld > a.cfg.UPSFreshness
	a.byName[ObjRackFresh].bad = rackOK && rackOld > a.cfg.RackFreshness
	stageBad := false
	for _, ss := range stageStatus(b.Stages) {
		stageBad = stageBad || ss.OverBudget
	}
	a.byName[ObjStageBudget].bad = stageBad

	budgetRate := 1 - Target
	for _, o := range a.objectives {
		v := 0.0
		if o.bad {
			v = 1
		}
		o.series.Append(now, v)
		fastAvg, slowAvg := o.window.observe(now, o.bad)
		o.fastBurn = fastAvg / budgetRate
		o.slowBurn = slowAvg / budgetRate
		tripped := o.fastBurn >= BreachBurn
		if o.immediate {
			tripped = o.bad
		}
		if tripped && !o.breached {
			o.breached = true
			o.episode = 0
			if o.name == ObjShedBudget {
				o.episode = a.lastEpisode
			}
			ev := recorder.Event{
				Type:    recorder.TypeSLOBreach,
				Time:    now,
				Actor:   "slo",
				Subject: o.name,
				Value:   o.fastBurn,
				Score:   BreachBurn,
				Episode: o.episode,
				Detail:  "fast-window burn over threshold",
			}
			if o.immediate {
				ev.Value = 1
				ev.Detail = "objective failing"
			}
			// The assigned seq is filled in after emission (below);
			// remember the index so recover events can cite it.
			events = append(events, ev)
		} else if !tripped && o.breached {
			o.breached = false
			events = append(events, recorder.Event{
				Type:    recorder.TypeSLORecover,
				Time:    now,
				Actor:   "slo",
				Subject: o.name,
				Value:   o.fastBurn,
				Score:   BreachBurn,
				Episode: o.episode,
				Cause:   o.breachSeq,
			})
			o.breachSeq = 0
			o.episode = 0
		}
	}

	// ---- health ----------------------------------------------------
	state, reasons := a.evalHealthLocked(episodeOpen)
	a.setHealthLocked(now, state, reasons)
	rec := a.cfg.Recorder
	a.mu.Unlock()

	// Emit outside the mutex (eventcheck), then bind breach seqs back so
	// the matching recover can cite its breach as Cause.
	if rec == nil {
		return
	}
	for i := range events {
		seq := rec.Emit(events[i])
		if events[i].Type == recorder.TypeSLOBreach {
			a.mu.Lock()
			if o, ok := a.byName[events[i].Subject]; ok && o.breached && o.breachSeq == 0 {
				o.breachSeq = seq
			}
			a.mu.Unlock()
		}
	}
}

// pendingRecoveryLocked computes, per UPS, the committed-but-not-yet-
// measured recovery: actions the controllers enforced after the UPS
// view's reading was taken, whose recovered watts the telemetry cannot
// reflect yet. Each action's recovery attributes to the UPSes of the
// rack's pair by power.PairShare over inactive (the failover set this
// tick's readings imply) — half each in normal operation, all of it to
// the survivor while its partner is out, exactly as applyRecovery in the
// planner books it. Deduped by rack across multi-primary controllers
// (actions are idempotent; counting a rack twice would overstate
// headroom). The result is the auditor's scratch, valid until the next
// tick.
func (a *Auditor) pendingRecoveryLocked(inactive power.UPSSet) []power.Watts {
	b := a.b
	out := a.pending
	clear(out)
	// Nothing is pending once every UPS reading postdates every primary's
	// last enforcement — every tick but the few right after an action.
	pendingAny := false
	for _, c := range b.Controllers {
		if _, lastEnforce := c.CommittedActions(); !lastEnforce.IsZero() {
			for _, at := range a.upsAt {
				pendingAny = pendingAny || !at.After(lastEnforce)
			}
		}
	}
	if !pendingAny {
		return out
	}
	clear(a.seenRack)
	for _, c := range b.Controllers {
		actions, lastEnforce := c.CommittedActions()
		if lastEnforce.IsZero() {
			continue
		}
		for _, act := range actions {
			if a.seenRack[act.Rack] {
				continue
			}
			a.seenRack[act.Rack] = true
			pair, ok := a.rackPair[act.Rack]
			if !ok {
				continue
			}
			ups := b.Topo.Pairs[pair].UPSes
			wa, wb := power.PairShare(inactive.Has(ups[0]), inactive.Has(ups[1]))
			for i, share := range [2]float64{wa, wb} {
				// Only credit the recovery while the view's reading
				// predates the enforcement; once a newer sample lands,
				// the measurement itself reflects the shed power.
				if uid := ups[i]; !a.upsAt[uid].After(lastEnforce) {
					out[uid] += power.Watts(share) * act.Recovered
				}
			}
		}
	}
	return out
}

// Objective is the exported snapshot of one SLO.
type Objective struct {
	Name     string  `json:"name"`
	Target   float64 `json:"target"`
	Bad      bool    `json:"bad"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Breached bool    `json:"breached"`
	// BreachSeq is the flight-recorder seq of the open breach event.
	BreachSeq uint64 `json:"breach_seq,omitempty"`
	// Episode is the overdraw episode attributed to the open breach.
	Episode uint64 `json:"episode,omitempty"`
}

// Status is the exported auditor snapshot.
type Status struct {
	Objectives []Objective `json:"objectives"`
	// EpisodeOpen / EpisodeID / BudgetBurn describe the open overdraw
	// episode: BudgetBurn is the fraction of the 10s detect→act budget
	// consumed so far.
	EpisodeOpen bool    `json:"episode_open"`
	EpisodeID   uint64  `json:"episode_id,omitempty"`
	BudgetBurn  float64 `json:"budget_burn"`
	Probe       Probe   `json:"probe"`
	Health      Health  `json:"health"`
	Ticks       uint64  `json:"ticks"`
	// Stages is the critical-path latency breakdown against StageBudgets
	// (empty without Bindings.Stages), in timeline order.
	Stages []StageStatus `json:"stages,omitempty"`
}

// StageStatus is one critical-path stage's digest against its sub-budget:
// a stage is over budget once its largest observation is.
type StageStatus struct {
	obs.StageDigest
	BudgetSeconds float64 `json:"budget_seconds"`
	OverBudget    bool    `json:"over_budget,omitempty"`
}

// stageStatus holds sm's digest against StageBudgets — what the
// stage-budget objective audits every tick and Status exports.
//
//flex:hotpath
func stageStatus(sm *obs.StageMetrics) (out [obs.NumStages]StageStatus) {
	budgets := StageBudgets()
	for stg, d := range sm.Digest() {
		b := budgets[stg].Seconds()
		out[stg] = StageStatus{StageDigest: d, BudgetSeconds: b, OverBudget: d.Count > 0 && d.Max > b}
	}
	return out
}

// Probe is the exported what-if probe state.
type Probe struct {
	Rounds      uint64   `json:"rounds"`
	Failures    uint64   `json:"failures"`
	CleanRounds uint64   `json:"clean_rounds"`
	Infeasible  []string `json:"infeasible,omitempty"`
	// LastLatencySeconds is the wall (clock-injected) duration of the
	// last probe round across all UPSes.
	LastLatencySeconds float64 `json:"last_latency_seconds"`
}

// Status snapshots the auditor.
func (a *Auditor) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{
		BudgetBurn: a.budgetRatio,
		Probe: Probe{
			Rounds:             a.probeRounds,
			Failures:           a.probeFails,
			CleanRounds:        a.cleanRounds,
			Infeasible:         append([]string(nil), a.lastInfeas...),
			LastLatencySeconds: a.lastProbeDur.Seconds(),
		},
		Health: a.healthLocked(),
		Ticks:  a.ticks,
	}
	for _, o := range a.objectives {
		st.Objectives = append(st.Objectives, Objective{
			Name:      o.name,
			Target:    Target,
			Bad:       o.bad,
			FastBurn:  o.fastBurn,
			SlowBurn:  o.slowBurn,
			Breached:  o.breached,
			BreachSeq: o.breachSeq,
			Episode:   o.episode,
		})
	}
	sort.Slice(st.Objectives, func(i, j int) bool { return st.Objectives[i].Name < st.Objectives[j].Name })
	if a.bound && a.b.Stages != nil {
		stages := stageStatus(a.b.Stages)
		st.Stages = stages[:]
	}
	if sb, ok := a.byName[ObjShedBudget]; ok {
		st.EpisodeOpen = sb.bad
		if sb.bad {
			st.EpisodeID = a.lastEpisode
		}
	}
	return st
}
