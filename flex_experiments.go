package flex

import (
	"context"

	"flex/internal/emu"
	"flex/internal/sim"
)

// Experiment harnesses.
type (
	// RackInstance is one expanded physical rack of a placement.
	RackInstance = sim.Rack
	// Figure12Config drives the §V-B snapshot simulation.
	Figure12Config = sim.Figure12Config
	// Figure12Point is one utilization point of Figure 12.
	Figure12Point = sim.Figure12Point
	// EmulationConfig drives the §V-C end-to-end emulation.
	EmulationConfig = emu.Config
	// EmulationResult summarizes an emulation run.
	EmulationResult = emu.Result
	// FleetEmulationConfig drives the multi-room fleet emulation: N
	// replicas of the §V-C room on one virtual clock, one shard each,
	// with optional UPS failure and ingest-saturation injection.
	FleetEmulationConfig = emu.FleetConfig
	// FleetEmulationResult summarizes a fleet emulation run.
	FleetEmulationResult = emu.FleetResult
)

// ExpandRacks explodes a placement into physical racks.
func ExpandRacks(pl *Placement) []RackInstance { return sim.ExpandRacks(pl) }

// ManagedRacks converts racks to the controller representation.
func ManagedRacks(racks []RackInstance) []ManagedRack { return sim.ManagedRacks(racks) }

// RunFigure12Context produces the Figure 12 series for one scenario. ctx
// bounds every planning pass of the sweep.
func RunFigure12Context(ctx context.Context, cfg Figure12Config) ([]Figure12Point, error) {
	return sim.RunFigure12(ctx, cfg)
}

// RunEmulationContext executes the Figure 13 end-to-end emulation. ctx
// bounds the offline placement solve and every controller planning pass.
func RunEmulationContext(ctx context.Context, cfg EmulationConfig) (*EmulationResult, error) {
	return emu.Run(ctx, cfg)
}

// RunFleetEmulationContext executes the multi-room fleet emulation: it
// solves one §V-C placement, replicates it across cfg.Rooms fault
// domains under one sharded fleet, fails one UPS mid-run, and reports
// detect/shed latency for the failed room plus the aggregated fleet
// snapshot. ctx bounds the placement solve and every shard planning
// pass.
func RunFleetEmulationContext(ctx context.Context, cfg FleetEmulationConfig) (*FleetEmulationResult, error) {
	return emu.RunFleet(ctx, cfg)
}
