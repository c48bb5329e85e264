package power

import (
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
// with constant pair loads: each survivor carries a TripState, the
// overloaded survivor with the least time left trips next, and every
// survivor's state advances by that interval at its load, so the tolerance
// a survivor consumed before a trip still counts after it. It stops when no
// survivor is overloaded or some PDU-pair has lost both of its UPSes. The
// horizon bounds the simulation; overloads that would trip after the
// horizon (e.g. because corrective action will arrive first) are ignored.
//
// This is the safety model behind the paper's Figure 4(right): load
// exceeding surviving capacity must be shaved within the trip tolerance or
// the initial failure cascades into an outage.
//
//flex:keep the cascade on TripState that the safety tests in five test files check placements against
func (t *Topology) SimulateCascade(load PairLoad, initialFailure UPSID, curve TripCurve, horizon time.Duration) CascadeOutcome {
	out := CascadeOutcome{Tripped: []UPSID{initialFailure}}
	failed := SetOf(initialFailure)
	states := make([]TripState, len(t.UPSes))
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
		var tripIn time.Duration
		for i, u := range t.UPSes {
			if failed.Has(UPSID(i)) || loads[i] <= u.Capacity {
				continue
			}
			left := states[i].Left(curve, float64(loads[i]/u.Capacity))
			if trip == -1 || left < tripIn {
				trip, tripIn = i, left
			}
		}
		if trip == -1 || elapsed+tripIn > horizon {
			return out // stable (or survives past the horizon)
		}
		for i, u := range t.UPSes {
			if !failed.Has(UPSID(i)) {
				states[i].Advance(curve, tripIn, float64(loads[i]/u.Capacity))
			}
		}
		elapsed += tripIn
		failed |= SetOf(UPSID(trip))
		out.Tripped = append(out.Tripped, UPSID(trip))
	}
}
