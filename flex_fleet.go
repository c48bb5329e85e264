package flex

import (
	"flex/internal/fleet"
)

// Fleet layer: Flex-Online scaled to many rooms. One controller shard
// per UPS fault domain, batched telemetry ingest through bounded
// drop-oldest queues, and a global aggregator folding shard snapshots
// into fleet-wide stranded power (Eq. 5), committed headroom, and
// per-room health. RunFleetEmulationContext assembles and steps one;
// FleetEpisodeTrace is one overdraw episode's stitched stage waterfall.
type FleetEpisodeTrace = fleet.EpisodeTrace
