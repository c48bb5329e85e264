package emu

import (
	"time"

	"flex/internal/power"
	"flex/internal/rackmgr"
)

// groundTruth is one room's true electrical state at one instant: every
// rack's draw under its actuation state, summed per PDU-pair and pushed
// through the load flow. The emulators ask for it twice a tick — after
// the demand update, for what the meters and the workload model see, and
// after the controllers stepped, for the trip curve and the timeline (and
// once more when a UPS trips) — and it is recomputed only when demand, the
// UPSes out or the actuation state moved since the last time. Everything in between reads these
// slices instead of re-deriving them rack by rack.
type groundTruth struct {
	// state and cap are the racks' actuation state, re-read from the
	// manager only when it has actuated since the last refresh.
	state      []rackmgr.PowerState
	cap        []power.Watts
	actuations int

	// rack, pair and ups belong to the room and are rewritten in place by
	// every refresh that recomputes: a caller that keeps one copies it.
	rack []power.Watts // per rack, in placement order
	pair power.PairLoad
	ups  []power.Watts
	// dark is set while a loaded PDU-pair has lost both of its UPSes.
	dark bool

	trip []power.TripState // per UPS, on the end-of-life trip curve
}

func newGroundTruth(topo *power.Topology, racks int) groundTruth {
	return groundTruth{
		state:      make([]rackmgr.PowerState, racks),
		cap:        make([]power.Watts, racks),
		actuations: -1,
		rack:       make([]power.Watts, racks),
		pair:       power.NewPairLoad(topo),
		ups:        make([]power.Watts, len(topo.UPSes)),
		trip:       make([]power.TripState, len(topo.UPSes)),
	}
}

// refresh brings the truth up to the racks' current demand and actuation
// state, with the UPSes in r.out out of service; it returns at once when
// none of the three moved since the last refresh. Pair loads sum in rack
// order.
//
//flex:hotpath
func (r *room) refresh() {
	g, p := &r.truth, r.plant
	n := r.mgr.Actuations()
	if !r.dirty && n == g.actuations {
		return
	}
	r.dirty = false
	if n != g.actuations {
		g.reread(r.mgr, p.ids, n)
	}
	clear(g.pair)
	for i, d := range r.demand {
		// A rack draws its demanded share of its allocation, capped while
		// throttled and nothing while off.
		w := power.Watts(d * p.alloc[i])
		switch g.state[i] {
		case rackmgr.Off:
			w = 0
		case rackmgr.Throttled:
			w = min(w, g.cap[i])
		}
		g.rack[i] = w
		g.pair[p.pair[i]] += w
	}
	g.dark = p.topo.LoadFlowInto(g.ups, g.pair, r.out)
}

// reread takes every rack's actuation state from the manager, which has
// actuated n times, a change since the last refresh: only a tick whose
// controllers acted gets here.
//
//flex:coldpath
func (g *groundTruth) reread(mgr *rackmgr.Manager, ids []string, n int) {
	g.actuations = n
	for i, id := range ids {
		g.state[i], g.cap[i], _ = mgr.State(id)
	}
}

// observe is the room's half of closing a tick on the post-step world:
// truth again if the controllers actuated (or nothing refreshed it since
// advance), then one tick of the trip curve, kept in r.under and
// r.tripped for tickState.settle and Run's trip events. A UPS that trips
// leaves service on this tick, and the truth is refreshed once more so its
// load lands on the survivors. It writes only r, so rooms observe in
// parallel.
func (r *room) observe(tick time.Duration) {
	r.refresh()
	r.under, r.tripped = r.observeTrip(tick)
	if r.tripped != 0 {
		r.refresh()
	}
}

// observeTrip advances every in-service UPS's trip state by one tick of
// the refreshed truth and takes out each UPS that trips. under reports
// whether every in-service UPS was within its rated capacity; tripped is
// the set that tripped.
//
//flex:hotpath
func (r *room) observeTrip(tick time.Duration) (under bool, tripped power.UPSSet) {
	g, ups := &r.truth, r.plant.topo.UPSes
	under = true
	for u := range ups {
		id, capW := power.UPSID(u), ups[u].Capacity
		if r.out.Has(id) || g.ups[u] <= capW {
			continue
		}
		under = false
		if g.trip[u].Advance(power.EndOfLifeTripCurve, tick, float64(g.ups[u]/capW)) {
			r.takeOut(id)
			tripped |= 1 << id
		}
	}
	return under, tripped
}
