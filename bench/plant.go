package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flex/internal/controller"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/sim"
	"flex/internal/workload"
)

// plant is one placed §V-C emulation room, built the way emu.Run and
// emu.RunFleet build theirs from paperTraceSeed: the emulation room, a
// one-workload-per-category trace at 85% flex power, Flex-Offline-Short
// capped at 150 nodes, the placement expanded into racks. The benchmark
// builds it itself so that set-up cost is visible from outside the
// emulators (setup_s), so that the traced drivers stand on the same room,
// and so that the emulators' Eq. 5 stranded power has an independent
// reference.
type plant struct {
	room    *placement.Room
	topo    *power.Topology
	trace   []workload.Deployment
	pl      *placement.Placement
	racks   []sim.Rack
	managed []controller.ManagedRack
	ids     []string
	// ratio is the demanded fraction of allocation per category at the
	// target utilization (TeraSort-like batch hot, TPC-E-like OLTP near
	// its flex power, non-cap-able cooler), normalised against the placed
	// mix exactly as the emulators do.
	ratio map[workload.Category]float64
}

const emuUtilization = 0.80

// paperTraceSeed is the emulators' default TraceSeed: the §V-C room as the
// repository evaluates it, 4.8MW and 360 slots with 275 racks placed. The
// room is part of the system under test, like the paper room's topology;
// -seed drives what happens in it (demand dynamics, meter noise), not
// which room it is. Other trace seeds place 270 to 290 racks, which moves
// the cost of a room-tick by a few percent for no reason of the code's.
const paperTraceSeed = 9

func buildPlant(ctx context.Context) (*plant, error) {
	room := placement.EmulationRoom()
	tcfg := workload.DefaultTraceConfig(room.Topo.ProvisionedPower())
	tcfg.WorkloadsPerCategory = 1
	tcfg.FlexPowerMin, tcfg.FlexPowerMax = 0.845, 0.855
	trace, err := workload.GenerateTrace(tcfg, rand.New(rand.NewSource(paperTraceSeed)))
	if err != nil {
		return nil, err
	}
	pl, err := placement.FlexOffline{BatchFraction: 0.33, MaxNodes: 150}.Place(ctx, room, trace)
	if err != nil {
		return nil, err
	}
	racks := sim.ExpandRacks(pl)
	if len(racks) == 0 {
		return nil, fmt.Errorf("bench: nothing placed in the emulation room")
	}
	p := &plant{
		room: room, topo: room.Topo, trace: trace, pl: pl,
		racks: racks, managed: sim.ManagedRacks(racks),
		ids: make([]string, len(racks)),
		ratio: map[workload.Category]float64{
			workload.SoftwareRedundant:      0.90 / 0.80,
			workload.NonRedundantCapable:    0.83 / 0.80,
			workload.NonRedundantNonCapable: 0.67 / 0.80,
		},
	}
	var weighted float64
	for i, r := range racks {
		p.ids[i] = r.ID
		weighted += p.ratio[r.Category] * float64(r.Allocated)
	}
	norm := emuUtilization * float64(p.topo.ProvisionedPower()) / weighted
	for c := range p.ratio {
		p.ratio[c] *= norm
	}
	return p, nil
}

// liveRack is one emulated rack's demand state in the traced drivers.
type liveRack struct {
	sim.Rack
	demand float64 // demanded fraction of allocation, AR(1)
}

func (p *plant) liveRacks() []liveRack {
	out := make([]liveRack, len(p.racks))
	for i, r := range p.racks {
		out[i] = liveRack{Rack: r, demand: 0.2}
	}
	return out
}

// step advances one rack's AR(1) demand towards its category target.
func (r *liveRack) step(target, theta, sigma, dt float64, rng *rand.Rand) {
	if target > 1 {
		target = 1
	}
	r.demand += theta*(target-r.demand)*dt + sigma*rng.NormFloat64()*dt
	if r.demand < 0.1 {
		r.demand = 0.1
	}
	if r.demand > 1 {
		r.demand = 1
	}
}

// rackPower is the ground-truth draw of a rack honouring its actuation
// state — the emulators' rackPowerOf.
func rackPower(mgr *rackmgr.Manager, r *liveRack) power.Watts {
	st, capW, _ := mgr.State(r.ID)
	want := power.Watts(r.demand * float64(r.Allocated))
	switch st {
	case rackmgr.Off:
		return 0
	case rackmgr.Throttled:
		if want > capW {
			return capW
		}
	}
	return want
}

// upsTruth is the ground-truth load per UPS honouring the failover
// transfer — the emulators' upsTruth.
func upsTruth(topo *power.Topology, mgr *rackmgr.Manager, racks []liveRack, inactive map[power.UPSID]bool) []power.Watts {
	load := power.NewPairLoad(topo)
	for i := range racks {
		load[racks[i].Pair] += rackPower(mgr, &racks[i])
	}
	loads := make([]power.Watts, len(topo.UPSes))
	for _, p := range topo.Pairs {
		w := load[p.ID]
		a, b := p.UPSes[0], p.UPSes[1]
		switch {
		case inactive[a] && inactive[b]:
		case inactive[a]:
			loads[b] += w
		case inactive[b]:
			loads[a] += w
		default:
			loads[a] += w / 2
			loads[b] += w / 2
		}
	}
	return loads
}

// tripWatch accumulates overload time per UPS against the end-of-life
// trip curve, and notes when every survivor is back under its rating.
type tripWatch struct {
	overFor []time.Duration
	outage  bool
}

func newTripWatch(topo *power.Topology) *tripWatch {
	return &tripWatch{overFor: make([]time.Duration, len(topo.UPSes))}
}

// observe folds one tick's truth in and reports whether every active UPS
// is within its rating.
func (t *tripWatch) observe(topo *power.Topology, truth []power.Watts, inactive map[power.UPSID]bool, tick time.Duration) (allUnder bool) {
	allUnder = true
	for u := range topo.UPSes {
		if inactive[power.UPSID(u)] {
			t.overFor[u] = 0
			continue
		}
		capW := topo.UPSes[u].Capacity
		if truth[u] > capW {
			allUnder = false
			t.overFor[u] += tick
			if t.overFor[u] > power.EndOfLifeTripCurve.Tolerance(float64(truth[u]/capW)) {
				t.outage = true
			}
		} else {
			t.overFor[u] = 0
		}
	}
	return allUnder
}
