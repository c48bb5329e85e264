package controller

import (
	"time"

	"flex/internal/obs"
	"flex/internal/power"
)

// Metrics instruments Flex-Online's control loop: one instance is shared
// by every controller primary of a room (counters aggregate across them).
// All children are pre-bound at construction, so recording a StepOutcome
// allocates nothing — the control loop must stay measurable without
// perturbing the latency it measures. A nil *Metrics disables
// instrumentation.
type Metrics struct {
	// Steps counts evaluation rounds.
	Steps *obs.Counter
	// OverdrawSteps counts rounds that saw some UPS above limit−buffer.
	OverdrawSteps *obs.Counter
	// OverdrawEpisodes counts distinct overdraw episodes (first detection
	// after a clear round).
	OverdrawEpisodes *obs.Counter
	// StaleSkips counts rounds that deferred re-planning because the
	// telemetry snapshot predated the last enforcement.
	StaleSkips *obs.Counter
	// PlanErrors counts Plan invocations that failed outright.
	PlanErrors *obs.Counter
	// PlanAborts counts planning passes cut short by the plan budget or
	// the step's context; their truncated plans were still enforced.
	PlanAborts *obs.Counter
	// PlannedShutdowns/PlannedThrottles count planned actions by kind.
	PlannedShutdowns *obs.Counter
	PlannedThrottles *obs.Counter
	// Enforced and EnforceErrors count actuation outcomes.
	Enforced      *obs.Counter
	EnforceErrors *obs.Counter
	// InsufficientSteps counts rounds where Algorithm 1 ran out of
	// shaveable racks before reaching safety.
	InsufficientSteps *obs.Counter
	// Restored counts racks restored during recovery.
	Restored *obs.Counter
	// FirstActionLatency is detection → first successful enforcement of an
	// overdraw episode, in seconds.
	FirstActionLatency *obs.Histogram
	// ShedLatency is detection → last enforcement of an episode, observed
	// when the overdraw clears; it must sit inside the 10-second UPS
	// overload tolerance budget (paper Fig. 6).
	ShedLatency *obs.Histogram
	// LatencyBudget exports the budget itself so dashboards can draw the
	// line without hardcoding it.
	LatencyBudget *obs.Gauge
}

// NewMetrics registers the controller metrics on r (idempotent).
func NewMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{
		Steps:            r.Counter("flex_controller_steps_total", "controller evaluation rounds"),
		OverdrawSteps:    r.Counter("flex_controller_overdraw_steps_total", "rounds with a UPS above limit minus buffer"),
		OverdrawEpisodes: r.Counter("flex_controller_overdraw_episodes_total", "distinct overdraw episodes detected"),
		StaleSkips:       r.Counter("flex_controller_stale_skips_total", "rounds deferred on stale telemetry"),
		PlanErrors:       r.Counter("flex_controller_plan_errors_total", "Algorithm 1 invocations that failed"),
		PlanAborts:       r.Counter("flex_controller_plan_aborts_total", "planning passes cut short by the plan budget"),
		PlannedShutdowns: r.CounterVec("flex_controller_planned_actions_total", "planned corrective actions by kind", "kind").With("shutdown"),
		PlannedThrottles: r.CounterVec("flex_controller_planned_actions_total", "planned corrective actions by kind", "kind").With("throttle"),
		Enforced:         r.Counter("flex_controller_enforced_total", "successfully enforced corrective actions"),
		EnforceErrors:    r.Counter("flex_controller_enforce_errors_total", "actuation failures"),
		InsufficientSteps: r.Counter("flex_controller_insufficient_steps_total",
			"rounds where shaveable power ran out before safety"),
		Restored: r.Counter("flex_controller_restored_total", "racks restored during recovery"),
		FirstActionLatency: r.Histogram("flex_controller_first_action_latency_seconds",
			"overdraw detection to first successful enforcement", obs.LatencyBuckets()),
		ShedLatency: r.Histogram("flex_controller_shed_latency_seconds",
			"overdraw detection to last enforcement of the episode", obs.LatencyBuckets()),
		LatencyBudget: r.Gauge("flex_controller_latency_budget_seconds",
			"the UPS overload tolerance budget corrective action must fit in"),
	}
	m.LatencyBudget.Set(power.FlexLatencyBudget.Seconds())
	return m
}

// recordStep folds one StepOutcome into the counters. It is the
// controller's hot-path metrics update and must not allocate (asserted by
// TestRecordStepZeroAllocations).
//
//flex:hotpath
func (m *Metrics) recordStep(out *StepOutcome) {
	if m == nil {
		return
	}
	m.Steps.Inc()
	if out.Overdraw {
		m.OverdrawSteps.Inc()
	}
	for i := range out.Planned {
		if out.Planned[i].Kind == Shutdown {
			m.PlannedShutdowns.Inc()
		} else {
			m.PlannedThrottles.Inc()
		}
	}
	if out.Enforced > 0 {
		m.Enforced.Add(uint64(out.Enforced))
	}
	if out.EnforceErrors > 0 {
		m.EnforceErrors.Add(uint64(out.EnforceErrors))
	}
	if out.Insufficient {
		m.InsufficientSteps.Inc()
	}
	if out.Restored > 0 {
		m.Restored.Add(uint64(out.Restored))
	}
}

// The helpers below are nil-safe so Step can record mid-round events
// without sprinkling nil checks through the control flow.

//flex:hotpath
func (m *Metrics) incEpisode() {
	if m != nil {
		m.OverdrawEpisodes.Inc()
	}
}

//flex:hotpath
func (m *Metrics) incStaleSkip() {
	if m != nil {
		m.StaleSkips.Inc()
	}
}

//flex:hotpath
func (m *Metrics) incPlanError() {
	if m != nil {
		m.PlanErrors.Inc()
	}
}

//flex:hotpath
func (m *Metrics) incPlanAbort() {
	if m != nil {
		m.PlanAborts.Inc()
	}
}

//flex:hotpath
func (m *Metrics) observeFirstAction(d time.Duration) {
	if m != nil {
		m.FirstActionLatency.ObserveDuration(d)
	}
}

//flex:hotpath
func (m *Metrics) observeShed(d time.Duration) {
	if m != nil {
		m.ShedLatency.ObserveDuration(d)
	}
}
