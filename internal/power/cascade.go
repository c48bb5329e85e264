package power

import (
	"sort"
	"time"
)

// CascadeOutcome describes how a room fares after an initial UPS failure if
// the given pair loads persist unchanged (i.e. no corrective action, or the
// corrective action reflected in the loads has already been applied).
type CascadeOutcome struct {
	// Tripped lists every UPS that goes out of service, in order: the
	// initial failure first, then each overload trip.
	Tripped []UPSID
	// Outage reports whether any PDU-pair lost both upstream UPSes, i.e.
	// racks lost power entirely — the cascading failure Flex must prevent.
	Outage bool
	// TimeToOutage is when the outage occurs relative to the initial
	// failure (meaningful only when Outage is true).
	TimeToOutage time.Duration
}

// SimulateCascade plays out the overload trip dynamics after initialFailure
// with constant pair loads: at each step the surviving UPS with the
// shortest remaining tolerance trips (if any is overloaded), transferring
// its load onward, until either no UPS is overloaded or some PDU-pair has
// lost both of its UPSes. The horizon bounds the simulation; overloads that
// would trip after the horizon (e.g. because corrective action will arrive
// first) are ignored.
//
// This is the safety model behind the paper's Figure 4(right): load
// exceeding surviving capacity must be shaved within the trip tolerance or
// the initial failure cascades into an outage.
func (t *Topology) SimulateCascade(load PairLoad, initialFailure UPSID, curve TripCurve, horizon time.Duration) CascadeOutcome {
	out := CascadeOutcome{Tripped: []UPSID{initialFailure}}
	failed := SetOf(initialFailure)
	elapsed := time.Duration(0)

	for {
		loads, dark := t.LoadFlow(load, failed)
		if dark {
			out.Outage = true
			out.TimeToOutage = elapsed
			return out
		}
		// Find the overloaded survivor that trips soonest.
		trip := -1
		var tripAt time.Duration
		for i, u := range t.UPSes {
			if failed.Has(UPSID(i)) || loads[i] <= u.Capacity {
				continue
			}
			tol := curve.Tolerance(float64(loads[i] / u.Capacity))
			if trip == -1 || tol < tripAt {
				trip, tripAt = i, tol
			}
		}
		if trip == -1 || elapsed+tripAt > horizon {
			return out // stable (or survives past the horizon)
		}
		elapsed += tripAt
		failed |= SetOf(UPSID(trip))
		out.Tripped = append(out.Tripped, UPSID(trip))
	}
}

// WorstSurvivorLoadFraction returns, across all single-UPS failures, the
// maximum post-failover load on any surviving UPS as a fraction of its
// capacity. For a uniformly loaded xN/y room at 100% utilization this
// approaches x/(x-1).
func (t *Topology) WorstSurvivorLoadFraction(load PairLoad) float64 {
	worst := 0.0
	for f := range t.UPSes {
		loads := t.FailoverLoads(load, UPSID(f))
		for u, w := range loads {
			if UPSID(u) == UPSID(f) {
				continue
			}
			frac := float64(w / t.UPSes[u].Capacity)
			if frac > worst {
				worst = frac
			}
		}
	}
	return worst
}

// ShaveTarget returns, for the failure of UPS f, how much power must be
// shed from each overloaded surviving UPS to bring it back to capacity
// minus buffer. The result maps UPSID → required reduction (only entries
// with a positive requirement are present). Keys are returned in a sorted
// slice alongside for deterministic iteration.
func (t *Topology) ShaveTarget(load PairLoad, f UPSID, buffer Watts) (map[UPSID]Watts, []UPSID) {
	loads := t.FailoverLoads(load, f)
	need := make(map[UPSID]Watts)
	var ids []UPSID
	for u := range t.UPSes {
		if UPSID(u) == f {
			continue
		}
		limit := t.UPSes[u].Capacity - buffer
		if loads[u] > limit {
			need[UPSID(u)] = loads[u] - limit
			ids = append(ids, UPSID(u))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return need, ids
}
