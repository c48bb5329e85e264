// Package flex is an open-source reproduction of "Flex: High-Availability
// Datacenters With Zero Reserved Power" (Zhang et al., ISCA 2021).
//
// Flex lets a datacenter allocate all of the power normally reserved for
// failover in an xN/y distributed-redundant design (e.g. 33% more servers
// for 4N/3) while preserving workload availability:
//
//   - Flex-Offline (the Place* functions and Policy implementations)
//     places server deployments so that, for every single-UPS failure and
//     even at 100% utilization, shutting down software-redundant racks and
//     throttling cap-able racks to their flex power brings every surviving
//     UPS back within its rating — while minimizing stranded power.
//   - Flex-Online (PlanActionsContext, RunEmulationContext) watches a
//     redundant power-telemetry pipeline for UPS overdraw and sheds the
//     minimum-impact set of racks within the ~10-second overload
//     tolerance window, guided by per-workload impact functions.
//   - The fleet layer (RunFleetEmulationContext) scales Flex-Online to
//     many rooms: one controller shard per UPS fault domain, batched
//     telemetry ingest with bounded drop-oldest queues, and a global
//     aggregator folding shard snapshots into fleet-wide stranded power
//     and health.
//
// The package is a facade over the implementation in internal/…. It
// exports what a program under cmd/ or examples/ calls, and nothing else:
// flexlint's unreached analyzer reports an export no program reaches.
// Organized by theme:
//
//	flex_topology.go     power units and xN/y designs
//	flex_workload.go     workload categories and demand traces
//	flex_placement.go    rooms, placement policies, Flex-Offline and online
//	flex_impact.go       the Figure 11 impact scenarios
//	flex_online.go       Flex-Online planning (Algorithm 1)
//	flex_fleet.go        the sharded multi-room fleet layer
//	flex_experiments.go  the §V-B/§V-C experiment harnesses
//	flex_recorder.go     the flight recorder
//	flex_analysis.go     the §III/§I/§VI analytic models
//
// Constructors with tunable knobs take With* functional options
// (NewPlacementRoom, NewOnlinePlacement); everything else is a plain
// function over the internal types it aliases.
package flex
