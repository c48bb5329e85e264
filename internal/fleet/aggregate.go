package fleet

import (
	"time"

	"flex/internal/obs/slo"
	"flex/internal/power"
)

// RoomStatus is one shard's slice of a fleet snapshot.
type RoomStatus struct {
	Name string `json:"name"`
	// State is the shard's health verdict (ready/degraded/unsafe).
	State slo.State `json:"state"`
	// Reasons explain any non-ready state.
	Reasons []string `json:"reasons,omitempty"`
	// Stranded is the room's Eq. 5 stranded power.
	Stranded power.Watts `json:"stranded_watts"`
	// Allocatable is the room's allocatable power.
	Allocatable power.Watts `json:"allocatable_watts"`
	// CommittedHeadroom is the power recovered by enforced, unrestored
	// actions, by the rack manager's record of what is shed.
	CommittedHeadroom power.Watts `json:"committed_headroom_watts"`
	// ActedRacks counts racks currently under an enforced action.
	ActedRacks int `json:"acted_racks"`
	// OpenEpisode is true while any primary has an overdraw episode open.
	OpenEpisode bool `json:"open_episode"`
	// EpisodeAge is how long the oldest open episode has been running.
	EpisodeAge time.Duration `json:"episode_age_ns"`
	// TelemetryAge is the staleness of the shard's least-fresh UPS
	// reading; negative when the shard has never received a sample.
	TelemetryAge time.Duration `json:"telemetry_age_ns"`
	// Dropped counts samples evicted from the shard's ingest queues.
	Dropped int `json:"dropped_samples"`
	// Pumped counts samples moved into the shard's views.
	Pumped uint64 `json:"pumped_samples"`
	// Steps counts shard evaluation rounds.
	Steps uint64 `json:"steps"`
}

// Snapshot is the fleet-level fold the aggregator produces.
type Snapshot struct {
	At    time.Time    `json:"at"`
	Rooms []RoomStatus `json:"rooms"`
	// State is the fleet verdict: the worst shard state.
	State slo.State `json:"state"`
	// Ready counts shards in StateReady.
	Ready int `json:"ready"`
	// StrandedPower is the fleet total of per-room Eq. 5 stranded power.
	StrandedPower power.Watts `json:"stranded_watts"`
	// AllocatablePower is the fleet total allocatable power.
	AllocatablePower power.Watts `json:"allocatable_watts"`
	// CommittedHeadroom totals the rooms' committed recovered power.
	CommittedHeadroom power.Watts `json:"committed_headroom_watts"`
	// DroppedSamples totals ingest-queue evictions across shards.
	DroppedSamples int `json:"dropped_samples"`
	// Stages digests the fleet's critical-path latencies (per-stage
	// count, sum and max with the max's recorder join), in timeline
	// order. Nil when the fleet has no registry.
	Stages []StageSummary `json:"stages,omitempty"`
}

// roomStatus computes one shard's status at time now.
func (f *Fleet) roomStatus(s *Shard, now time.Time) RoomStatus {
	st := RoomStatus{
		Name:        s.Name,
		Stranded:    s.cfg.Stranded,
		Allocatable: s.cfg.Allocatable,
		Dropped:     s.Dropped(),
		Pumped:      s.Pumped(),
		Steps:       s.Steps(),
	}
	headroom, acted := s.committedHeadroom()
	st.CommittedHeadroom = power.Watts(headroom)
	st.ActedRacks = acted

	age, seen := s.upsView.Oldest(now)
	if seen {
		st.TelemetryAge = age
	} else {
		st.TelemetryAge = -1
	}
	open, since := s.openEpisode()
	st.OpenEpisode = open
	if open {
		st.EpisodeAge = now.Sub(since)
	}

	switch {
	case open && st.EpisodeAge > power.FlexLatencyBudget:
		// The invariant is at risk: an overdraw has outlived the battery
		// budget without clearing.
		st.State = slo.StateUnsafe
		st.Reasons = append(st.Reasons, "open overdraw episode past the 10s budget")
	case open:
		st.State = slo.StateDegraded
		st.Reasons = append(st.Reasons, "overdraw episode open")
	case !seen:
		st.State = slo.StateDegraded
		st.Reasons = append(st.Reasons, "no UPS telemetry received")
	case age > freshness:
		st.State = slo.StateDegraded
		st.Reasons = append(st.Reasons, "UPS telemetry stale")
	default:
		st.State = slo.StateReady
	}
	return st
}

// AggregateOnce folds every shard's status into a fleet snapshot at time
// now and exports the fleet metrics. The caller runs it slower than it
// steps the shards; correctness of the 10s budget never depends on it.
func (f *Fleet) AggregateOnce(now time.Time) Snapshot {
	snap := Snapshot{At: now, Rooms: make([]RoomStatus, 0, len(f.shards))}
	worst := slo.StateReady
	for _, s := range f.shards {
		st := f.roomStatus(s, now)
		snap.Rooms = append(snap.Rooms, st)
		snap.StrandedPower += st.Stranded
		snap.AllocatablePower += st.Allocatable
		snap.CommittedHeadroom += st.CommittedHeadroom
		snap.DroppedSamples += st.Dropped
		if st.State == slo.StateReady {
			snap.Ready++
		}
		worst = slo.Worst(worst, st.State)
	}
	snap.State = worst
	snap.Stages = f.StageSummaries()
	if f.metrics != nil {
		f.metrics.export(snap)
	}
	return snap
}
