package flex

import (
	"context"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/rackmgr"
)

// Flex-Online types.
type (
	// ManagedRack is a rack under Flex-Online control.
	ManagedRack = controller.ManagedRack
	// PlannedAction is one corrective action chosen by Algorithm 1.
	PlannedAction = controller.PlannedAction
	// PlanInput is the snapshot Algorithm 1 plans from.
	PlanInput = controller.PlanInput
	// Controller is one Flex-Online primary.
	Controller = controller.Controller
	// ControllerConfig assembles a Controller.
	ControllerConfig = controller.Config
	// RackManager is the actuator enforcing shutdown/throttle/restore
	// actions on racks.
	RackManager = rackmgr.Manager
)

// Action kinds.
const (
	ActionShutdown = controller.Shutdown
	ActionThrottle = controller.Throttle
)

// NewRackManager creates an actuator over the given rack IDs on the real
// clock; all racks start powered on and reachable.
func NewRackManager(rackIDs []string) *RackManager {
	return rackmgr.NewManager(clock.Real{}, rackIDs)
}

// PlanActionsContext runs the paper's Algorithm 1 on a power snapshot,
// with a cancellation point per greedy iteration; on expiry it returns
// the truncated plan with context.Cause(ctx).
func PlanActionsContext(ctx context.Context, in PlanInput) (actions []PlannedAction, insufficient bool, err error) {
	return controller.PlanContext(ctx, in)
}

// ControllerOption customizes NewOnlineController.
type ControllerOption func(*ControllerConfig)

// WithControllerName names the controller primary (events, traces and
// metrics are tagged with it). The default is "flex-online".
func WithControllerName(name string) ControllerOption {
	return func(c *ControllerConfig) { c.Name = name }
}

// WithTelemetryViews wires the freshest-power views the controller reads;
// feed them from Pipeline.SubscribeAll or a fleet shard.
func WithTelemetryViews(ups, rack *LatestPower) ControllerOption {
	return func(c *ControllerConfig) {
		c.UPSView = ups
		c.RackView = rack
	}
}

// WithRackEstimator plans from §IV-D time-series estimates instead of the
// raw rack snapshot.
func WithRackEstimator(est *EWMAEstimator) ControllerOption {
	return func(c *ControllerConfig) { c.RackEstimator = est }
}

// WithActuator wires the rack actuator that enforces planned actions.
func WithActuator(m *RackManager) ControllerOption {
	return func(c *ControllerConfig) { c.Actuator = m }
}

// WithScenario sets the impact scenario guiding Algorithm 1. The default
// is ScenarioDefault.
func WithScenario(s Scenario) ControllerOption {
	return func(c *ControllerConfig) { c.Scenario = s }
}

// WithSafetyBuffer sets the margin below UPS capacity the controller
// sheds down to. The default is 1% of the smallest UPS capacity.
func WithSafetyBuffer(w Watts) ControllerOption {
	return func(c *ControllerConfig) { c.Buffer = w }
}

// WithPlanBudget bounds one Algorithm 1 planning pass. The default is
// half of FlexLatencyBudget, leaving the other half for actuation.
func WithPlanBudget(d time.Duration) ControllerOption {
	return func(c *ControllerConfig) { c.PlanBudget = d }
}

// WithControllerConfig applies an arbitrary edit to the assembled
// ControllerConfig — the escape hatch for knobs without a dedicated
// option (clock, metrics, tracer, recorder).
func WithControllerConfig(edit func(*ControllerConfig)) ControllerOption {
	return ControllerOption(edit)
}

// NewOnlineController creates a Flex-Online controller primary for the
// topology and managed racks, with With* options for the remaining
// collaborators and knobs. Without options the controller runs on the
// real clock with the paper's default cadence, buffer and scenario; wire
// WithTelemetryViews and WithActuator to make it operational.
func NewOnlineController(topo *Topology, racks []ManagedRack, opts ...ControllerOption) *Controller {
	cfg := ControllerConfig{Topo: topo, Racks: racks}
	for _, o := range opts {
		o(&cfg)
	}
	return controller.New(cfg)
}
