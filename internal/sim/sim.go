// Package sim implements the snapshot-based Flex-Online evaluation of the
// paper's §V-B (Figure 12): place a demand trace with Flex-Offline, sample
// per-rack power draws at a target room utilization, fail each UPS in
// turn, run Algorithm 1 on the resulting overdraw, and report the average
// percentage of racks impacted, shut down, and throttled.
package sim

import (
	"context"
	"fmt"
	"math/rand"

	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs/recorder"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/stats"
	"flex/internal/workload"
)

// Rack is one physical rack expanded from a placed deployment.
type Rack struct {
	ID        string
	Workload  string
	Category  workload.Category
	Pair      power.PDUPairID
	Allocated power.Watts
	FlexPower power.Watts
}

// ExpandRacks turns a placement into individual racks (deployments are
// homogeneous: every rack inherits the deployment's power and flex power).
func ExpandRacks(pl *placement.Placement) []Rack {
	var out []Rack
	for _, d := range pl.Placed() {
		pid := pl.Assignments[d.ID]
		for i := 0; i < d.Racks; i++ {
			out = append(out, Rack{
				ID:        fmt.Sprintf("dep%03d-rack%02d", d.ID, i),
				Workload:  d.Workload,
				Category:  d.Category,
				Pair:      pid,
				Allocated: d.PowerPerRack,
				FlexPower: d.FlexPowerPerRack(),
			})
		}
	}
	return out
}

// ManagedRacks converts racks to the controller's representation.
func ManagedRacks(racks []Rack) []controller.ManagedRack {
	out := make([]controller.ManagedRack, len(racks))
	for i, r := range racks {
		out[i] = controller.ManagedRack{
			ID:        r.ID,
			Workload:  r.Workload,
			Category:  r.Category,
			Pair:      r.Pair,
			Allocated: r.Allocated,
			FlexPower: r.FlexPower,
		}
	}
	return out
}

// SampleRackPowers draws a per-rack power snapshot at the given room
// utilization: each rack draws a truncated-normal share of its allocation
// (modelling the paper's "historical rack power distributions"), then the
// snapshot is scaled so that total draw = utilization × total allocated.
func SampleRackPowers(racks []Rack, utilization float64, rng *rand.Rand) map[string]power.Watts {
	out := make(map[string]power.Watts, len(racks))
	var total, alloc power.Watts
	for _, r := range racks {
		frac := utilization + rng.NormFloat64()*0.06
		if frac < 0.3 {
			frac = 0.3
		}
		if frac > 1 {
			frac = 1
		}
		p := power.Watts(frac * float64(r.Allocated))
		out[r.ID] = p
		total += p
		alloc += r.Allocated
	}
	if total <= 0 {
		return out
	}
	scale := utilization * float64(alloc) / float64(total)
	for _, r := range racks {
		v := power.Watts(float64(out[r.ID]) * scale)
		if v > r.Allocated { // keep within the rack's physical allocation
			v = r.Allocated
		}
		out[r.ID] = v
	}
	return out
}

// PairLoadFromRacks aggregates a rack power snapshot onto PDU-pairs.
func PairLoadFromRacks(topo *power.Topology, racks []Rack, rackPower map[string]power.Watts) power.PairLoad {
	load := power.NewPairLoad(topo)
	for _, r := range racks {
		load[r.Pair] += rackPower[r.ID]
	}
	return load
}

// Figure12Config drives RunFigure12.
type Figure12Config struct {
	// Placement is the placed room (typically Flex-Offline-Short on the
	// default trace in the paper room).
	Placement *placement.Placement
	// Scenario is the impact-function scenario under study.
	Scenario impact.Scenario
	// Utilizations are the x-axis points (e.g. 0.74 … 0.85).
	Utilizations []float64
	// SamplesPerFailure is how many power snapshots to draw per (failure,
	// utilization); the paper varies draws via its rack power
	// distributions.
	SamplesPerFailure int
	// Seed drives sampling.
	Seed int64
	// Recorder, when non-nil, logs each (failure, sample) snapshot as an
	// episode: ups-fail → plan-start → planned actions → plan-commit.
	// Snapshot runs are timeless and headerless — the events carry zero
	// timestamps and the log is for reading, not for flexreplay (which
	// needs an emulation recording with a replay header).
	Recorder *recorder.Recorder
}

// Figure12Point is one x-axis point of Figure 12 for one scenario.
type Figure12Point struct {
	Utilization float64
	// Impacted is the percentage of all racks acted on (Fig 12a).
	Impacted stats.MeanStd
	// ShutDown is the percentage of shut-down-able (software-redundant)
	// racks that were shut down (Fig 12b).
	ShutDown stats.MeanStd
	// Throttled is the percentage of throttle-able (non-redundant
	// cap-able) racks that were throttled (Fig 12c).
	Throttled stats.MeanStd
	// Insufficient counts runs where Algorithm 1 ran out of shaveable
	// racks before reaching safety.
	Insufficient int
}

// RunFigure12 produces the Figure 12 series for one scenario: for every
// utilization and every single-UPS failure, sample rack powers, compute
// the post-failover UPS loads, run Algorithm 1 with
// controller.DefaultBuffer as the safety margin, and aggregate. ctx bounds
// every planning pass; on expiry the sweep stops with its cause.
func RunFigure12(ctx context.Context, cfg Figure12Config) ([]Figure12Point, error) {
	if cfg.Placement == nil {
		return nil, fmt.Errorf("sim: placement required")
	}
	if cfg.SamplesPerFailure <= 0 {
		cfg.SamplesPerFailure = 3
	}
	topo := cfg.Placement.Room.Topo
	racks := ExpandRacks(cfg.Placement)
	if len(racks) == 0 {
		return nil, fmt.Errorf("sim: placement has no racks")
	}
	managed := ManagedRacks(racks)
	totalRacks := len(racks)
	srRacks, capRacks := 0, 0
	for _, r := range racks {
		switch r.Category {
		case workload.SoftwareRedundant:
			srRacks++
		case workload.NonRedundantCapable:
			capRacks++
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// One prepared Algorithm 1 and one action buffer serve every snapshot,
	// planned with the margin every controller runs with.
	planner := controller.NewPlanner(topo, managed, cfg.Scenario)
	buffer := controller.DefaultBuffer(topo)
	var buf []controller.PlannedAction

	var out []Figure12Point
	for _, util := range cfg.Utilizations {
		pt := Figure12Point{Utilization: util}
		var impacted, shut, throttled []float64
		for f := range topo.UPSes {
			for s := 0; s < cfg.SamplesPerFailure; s++ {
				rackPower := SampleRackPowers(racks, util, rng)
				load := PairLoadFromRacks(topo, racks, rackPower)
				ups := topo.FailoverLoads(load, power.UPSID(f))
				inactive := map[power.UPSID]bool{power.UPSID(f): true}
				actions, insufficient, err := planner.Plan(ctx, controller.PlanInput{
					UPSPower:  ups,
					RackPower: rackPower,
					Inactive:  inactive,
					Buffer:    buffer,
				}, buf)
				buf = actions
				if err != nil {
					return nil, err
				}
				if insufficient {
					pt.Insufficient++
				}
				if cfg.Recorder != nil {
					recordSnapshot(cfg.Recorder, topo.UPSes[f].Name, util, actions, insufficient)
				}
				nShut, nThrottle := 0, 0
				for _, a := range actions {
					if a.Kind == controller.Shutdown {
						nShut++
					} else {
						nThrottle++
					}
				}
				impacted = append(impacted, 100*float64(len(actions))/float64(totalRacks))
				if srRacks > 0 {
					shut = append(shut, 100*float64(nShut)/float64(srRacks))
				}
				if capRacks > 0 {
					throttled = append(throttled, 100*float64(nThrottle)/float64(capRacks))
				}
			}
		}
		pt.Impacted = stats.MeanStdOf(impacted)
		pt.ShutDown = stats.MeanStdOf(shut)
		pt.Throttled = stats.MeanStdOf(throttled)
		out = append(out, pt)
	}
	return out, nil
}

// recordSnapshot logs one Figure 12 snapshot as a causally-chained
// episode on the flight recorder.
func recordSnapshot(rec *recorder.Recorder, upsName string, util float64, actions []controller.PlannedAction, insufficient bool) {
	ep := rec.NextEpisode()
	fail := rec.Emit(recorder.Event{
		Type:    recorder.TypeUPSFail,
		Actor:   "fig12",
		Subject: upsName,
		Value:   util,
		Episode: ep,
	})
	plan := rec.Emit(recorder.Event{
		Type:    recorder.TypePlanStart,
		Actor:   "fig12",
		Subject: upsName,
		Cause:   fail,
		Episode: ep,
	})
	var recovered power.Watts
	for _, a := range actions {
		recovered += a.Recovered
		rec.Emit(recorder.Event{
			Type:    recorder.TypeActionPlanned,
			Actor:   "fig12",
			Subject: a.Rack,
			Value:   float64(a.Recovered),
			Score:   a.Impact,
			Aux:     int64(a.Kind),
			Detail:  a.Workload,
			Cause:   plan,
			Episode: ep,
		})
	}
	commit := recorder.Event{
		Type:    recorder.TypePlanCommit,
		Actor:   "fig12",
		Subject: upsName,
		Value:   float64(recovered),
		Aux:     int64(len(actions)),
		Cause:   plan,
		Episode: ep,
	}
	if insufficient {
		commit.Detail = "insufficient"
	}
	rec.Emit(commit)
}
