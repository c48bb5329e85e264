package flex

import (
	"flex/internal/fleet"
)

// Fleet layer: Flex-Online scaled to many rooms. One controller shard
// per UPS fault domain, batched telemetry ingest through bounded
// drop-oldest queues, and a global aggregator folding shard snapshots
// into fleet-wide stranded power (Eq. 5), committed headroom, and
// per-room health. RunFleetEmulationContext assembles and steps one.
type (
	// Fleet is the sharded multi-room Flex-Online layer.
	Fleet = fleet.Fleet
	// FleetEpisodeTrace is one overdraw episode's stitched stage
	// waterfall, as served at /fleet/traces.
	FleetEpisodeTrace = fleet.EpisodeTrace
)
