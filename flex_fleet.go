package flex

import (
	"net/http"

	"flex/internal/fleet"
)

// Fleet layer: Flex-Online scaled to many rooms. One controller shard
// per UPS fault domain, batched telemetry ingest through bounded
// drop-oldest queues, and a global aggregator folding shard snapshots
// into fleet-wide stranded power (Eq. 5), committed headroom, and
// per-room health.
type (
	// Fleet is the sharded multi-room Flex-Online layer.
	Fleet = fleet.Fleet
	// FleetConfig assembles a Fleet; zero values select defaults.
	FleetConfig = fleet.Config
	// FleetRoomConfig describes one UPS fault domain joining the fleet.
	// (RoomConfig already names the topology configuration.)
	FleetRoomConfig = fleet.RoomConfig
	// FleetShard is one room's controller shard: its telemetry views,
	// ingest queues and Flex-Online primaries.
	FleetShard = fleet.Shard
	// FleetSnapshot is the aggregator's fleet-wide fold.
	FleetSnapshot = fleet.Snapshot
	// FleetRoomStatus is one room's slice of a FleetSnapshot.
	FleetRoomStatus = fleet.RoomStatus
	// FleetEpisodeTrace is one overdraw episode's stitched stage
	// waterfall, as served at /fleet/traces.
	FleetEpisodeTrace = fleet.EpisodeTrace
	// FleetStageSummary is a fleet-wide per-stage latency digest (exact
	// count, sum and max) with the max's join back to the flight recorder.
	FleetStageSummary = fleet.StageSummary
)

// NewFleet creates an empty fleet from the config. Add fault domains
// with Fleet.AddRoom and step each returned shard on your clock: feed it
// with IngestUPS/IngestRacks, then Pump and StepContext. Fold the rooms
// with Fleet.AggregateOnce at least every AggregateEvery, read the global
// view with Fleet.Snapshot, and serve it with Fleet.Handler as the /fleet
// endpoint.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

// FleetHandler returns f's /fleet HTTP handler: the aggregated snapshot
// as JSON, with ?room=NAME narrowing to one room's status. Mount it via
// obs.ServerConfig.Fleet.
func FleetHandler(f *Fleet) http.Handler { return f.Handler() }

// FleetTracesHandler returns f's /fleet/traces HTTP handler: stitched
// per-episode stage waterfalls plus the fleet stage digests as JSON,
// with ?episode=N and ?limit=K filters. Mount it via
// obs.ServerConfig.FleetTraces.
func FleetTracesHandler(f *Fleet) http.Handler { return f.TracesHandler() }
