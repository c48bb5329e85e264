package flex

import (
	"context"

	"flex/internal/lp"
	"flex/internal/milp"
	"flex/internal/placement"
)

// MILP solver surface — the engine behind Flex-Offline's batch ILP,
// exposed for users who want to solve their own placement variants or
// tune the search.
type (
	// MILPProblem is a 0/1 packing program: maximize Objective·x over
	// binary x subject to rows Σ a·x <= b with every a >= 0, and every
	// variable bounded at <= 1 by some row. Validate checks the class.
	MILPProblem = milp.Problem
	// SolveOptions tunes the parallel branch-and-bound search (workers,
	// limits, warm starts). The result does not depend on the worker count.
	SolveOptions = milp.Options
	// SolveResult is one solve's outcome, including why a truncated
	// search stopped.
	SolveResult = milp.Result
	// SolveStatus classifies a solve outcome.
	SolveStatus = milp.Status
	// StopReason says why a search stopped before proving optimality.
	StopReason = milp.StopReason
	// LinearProblem is the linear program of a MILPProblem: maximize
	// Objective·x over nonnegative x subject to its rows.
	LinearProblem = lp.Problem
	// LinearConstraint is one row Coeffs·x <= RHS of a LinearProblem.
	LinearConstraint = lp.Constraint
)

// Solve statuses.
const (
	SolveOptimal    = milp.Optimal
	SolveFeasible   = milp.Feasible
	SolveInfeasible = milp.Infeasible
)

// Stop reasons for truncated searches.
const (
	StopNone      = milp.StopNone
	StopDeadline  = milp.StopDeadline
	StopNodeLimit = milp.StopNodeLimit
	StopCanceled  = milp.StopCanceled
)

// SolveMILP runs the parallel branch-and-bound solver on the 0/1 packing
// program p under ctx: a context deadline bounds the search (Stop ==
// StopDeadline), and cancellation returns the best incumbent with
// context.Cause(ctx). A p outside the class — see MILPProblem — is refused
// with the error p.Validate() reports.
func SolveMILP(ctx context.Context, p *MILPProblem, opts SolveOptions) (SolveResult, error) {
	return milp.SolveContext(ctx, p, opts)
}

// BatchPlacementILP builds the Flex-Offline batch ILP (Eq. 1–5) for
// placing the batch into the room — the exact problem FlexOffline solves
// per flush, useful as a realistic solver workload or a starting point
// for custom placement formulations.
func BatchPlacementILP(room *Room, batch []Deployment) *MILPProblem {
	return placement.BatchILP(room, batch)
}
