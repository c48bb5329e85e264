package fleet

import (
	"flex/internal/obs"
)

// Metrics is the fleet aggregation layer's observability. Per-room gauges
// are labeled by room name; totals mirror the Snapshot fields, so a
// registry reader (`flexsim -metrics`, a tsdb sampler) sees the fleet view
// without asking the fleet.
type Metrics struct {
	// Rooms is the number of shards in the fleet.
	Rooms *obs.Gauge
	// Ready is the number of shards currently in StateReady.
	Ready *obs.Gauge
	// State is the fleet health verdict (0 ready, 1 degraded, 2 unsafe).
	State *obs.Gauge
	// StrandedWatts is the fleet total of per-room Eq. 5 stranded power.
	StrandedWatts *obs.Gauge
	// CommittedHeadroomWatts totals the committed recovered power.
	CommittedHeadroomWatts *obs.Gauge
	// DroppedSamples totals ingest-queue evictions across shards.
	DroppedSamples *obs.Gauge
	// Aggregations counts aggregator folds.
	Aggregations *obs.Counter
	// RoomState is the per-room health verdict, labeled by room.
	RoomState *obs.GaugeVec
	// RoomStrandedWatts is per-room Eq. 5 stranded power, labeled by room.
	RoomStrandedWatts *obs.GaugeVec
	// RoomDropped is per-room ingest-queue evictions, labeled by room.
	RoomDropped *obs.GaugeVec
}

// NewMetrics registers the fleet metrics on r (idempotent: calling twice
// with the same registry rebinds the same metrics).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Rooms:         r.Gauge("flex_fleet_rooms", "shards in the fleet"),
		Ready:         r.Gauge("flex_fleet_rooms_ready", "shards in ready state"),
		State:         r.Gauge("flex_fleet_state", "fleet health verdict (0 ready, 1 degraded, 2 unsafe)"),
		StrandedWatts: r.Gauge("flex_fleet_stranded_watts", "fleet total of per-room Eq. 5 stranded power"),
		CommittedHeadroomWatts: r.Gauge("flex_fleet_committed_headroom_watts",
			"power recovered by enforced, unrestored actions across the fleet"),
		DroppedSamples: r.Gauge("flex_fleet_dropped_samples", "samples evicted from shard ingest queues"),
		Aggregations:   r.Counter("flex_fleet_aggregations_total", "aggregator folds"),
		RoomState: r.GaugeVec("flex_fleet_room_state",
			"per-room health verdict (0 ready, 1 degraded, 2 unsafe)", "room"),
		RoomStrandedWatts: r.GaugeVec("flex_fleet_room_stranded_watts",
			"per-room Eq. 5 stranded power", "room"),
		RoomDropped: r.GaugeVec("flex_fleet_room_dropped_samples",
			"per-room ingest-queue evictions", "room"),
	}
}

// export publishes one snapshot to the registry.
func (m *Metrics) export(snap Snapshot) {
	m.Ready.Set(float64(snap.Ready))
	m.State.Set(float64(snap.State))
	m.StrandedWatts.Set(float64(snap.StrandedPower))
	m.CommittedHeadroomWatts.Set(float64(snap.CommittedHeadroom))
	m.DroppedSamples.Set(float64(snap.DroppedSamples))
	m.Aggregations.Inc()
	for _, room := range snap.Rooms {
		m.RoomState.With(room.Name).Set(float64(room.State))
		m.RoomStrandedWatts.With(room.Name).Set(float64(room.Stranded))
		m.RoomDropped.With(room.Name).Set(float64(room.Dropped))
	}
}
