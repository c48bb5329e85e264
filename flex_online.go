package flex

import (
	"context"

	"flex/internal/controller"
)

// Flex-Online types.
type (
	// ManagedRack is a rack under Flex-Online control.
	ManagedRack = controller.ManagedRack
	// PlannedAction is one corrective action chosen by Algorithm 1.
	PlannedAction = controller.PlannedAction
	// PlanInput is the snapshot Algorithm 1 plans from.
	PlanInput = controller.PlanInput
)

// Action kinds.
const (
	ActionShutdown = controller.Shutdown
	ActionThrottle = controller.Throttle
)

// PlanActionsContext runs the paper's Algorithm 1 on a power snapshot,
// with a cancellation point per greedy iteration; on expiry it returns
// the truncated plan with context.Cause(ctx).
func PlanActionsContext(ctx context.Context, in PlanInput) (actions []PlannedAction, insufficient bool, err error) {
	return controller.PlanContext(ctx, in)
}
