package emu

import (
	"time"

	"flex/internal/power"
	"flex/internal/rackmgr"
)

// groundTruth is one room's true electrical state at one instant: every
// rack's draw under its actuation state, summed per PDU-pair and pushed
// through the load flow. The emulators refresh it twice a tick — after
// the demand update, for what the meters and the workload model see, and
// after the controllers stepped, for the trip curve and the timeline —
// and everything in between reads these slices instead of re-deriving
// them rack by rack.
type groundTruth struct {
	// state and cap are the racks' actuation state, re-read from the
	// manager only when it has actuated since the last refresh.
	state      []rackmgr.PowerState
	cap        []power.Watts
	actuations int

	rack []power.Watts // per rack, in sims order
	pair power.PairLoad
	ups  []power.Watts // a fresh slice every refresh; callers may keep it

	overFor []time.Duration // per UPS, time spent over rated capacity
}

func newGroundTruth(topo *power.Topology, racks int) groundTruth {
	return groundTruth{
		state:      make([]rackmgr.PowerState, racks),
		cap:        make([]power.Watts, racks),
		actuations: -1,
		rack:       make([]power.Watts, racks),
		pair:       power.NewPairLoad(topo),
		overFor:    make([]time.Duration, len(topo.UPSes)),
	}
}

// refresh recomputes the truth for the racks' current demand and
// actuation state, with the UPSes in r.out out of service. Pair loads sum
// in sims order.
func (r *room) refresh() {
	g := &r.truth
	if n := r.mgr.Actuations(); n != g.actuations {
		g.actuations = n
		for i, rs := range r.sims {
			g.state[i], g.cap[i], _ = r.mgr.State(rs.ID)
		}
	}
	clear(g.pair)
	for i, rs := range r.sims {
		// A rack draws its demanded share of its allocation, capped while
		// throttled and nothing while off.
		p := power.Watts(rs.demand * float64(rs.Allocated))
		switch g.state[i] {
		case rackmgr.Off:
			p = 0
		case rackmgr.Throttled:
			p = min(p, g.cap[i])
		}
		g.rack[i] = p
		g.pair[rs.Pair] += p
	}
	g.ups, _ = r.topo.LoadFlow(g.pair, r.out)
}

// observeTrip advances the overload clocks by one tick of the refreshed
// truth. under reports whether every in-service UPS is within its rated
// capacity; tripped whether one has been over it for longer than the
// end-of-life trip curve tolerates.
func (r *room) observeTrip(tick time.Duration) (under, tripped bool) {
	g := &r.truth
	under = true
	for u := range r.topo.UPSes {
		if r.out.Has(power.UPSID(u)) {
			g.overFor[u] = 0
			continue
		}
		capW := r.topo.UPSes[u].Capacity
		if g.ups[u] > capW {
			under = false
			g.overFor[u] += tick
			if g.overFor[u] > power.EndOfLifeTripCurve.Tolerance(float64(g.ups[u]/capW)) {
				tripped = true
			}
		} else {
			g.overFor[u] = 0
		}
	}
	return under, tripped
}
