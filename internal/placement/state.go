package placement

import (
	"flex/internal/power"
	"flex/internal/workload"
)

// state is the bookkeeping every policy places through, so every produced
// placement is safe by construction: free slots and allocated power per
// pair, the room totals behind the cooling and diversity budgets, and the
// Eq. 2 / Eq. 4 safety state in a power.Ledger.
type state struct {
	room      *Room
	rows      *rowState // nil unless row modelling is enabled
	slotsLeft []int
	pairPow   []power.Watts // allocated power per PDU-pair
	// safety holds the allocated (Eq. 2) and post-shave (Eq. 4) load of
	// everything placed.
	safety *power.Ledger
	// throttle holds, in its failover table, the failover-weighted power
	// recoverable by throttling alone (cap-able deployments only); used by
	// Flex-Offline's balance term and the imbalance metric.
	throttle     *power.Ledger
	placedPow    power.Watts
	placedCapPow power.Watts // cumulative post-shave (CapPow) allocation
	placed       map[int]power.PDUPairID
	deps         map[int]workload.Deployment // placed deployments by ID
}

func newState(room *Room) *state {
	rows, err := newRowState(room)
	if err != nil {
		// Room misconfiguration is a programming error at this level;
		// Policy implementations surface it before building state.
		panic(err)
	}
	return &state{
		room:      room,
		rows:      rows,
		slotsLeft: append([]int(nil), room.SlotsPerPair...),
		pairPow:   make([]power.Watts, len(room.Topo.Pairs)),
		safety:    room.NewLedger(),
		throttle:  power.NewLedger(room.Topo, nil),
		placed:    make(map[int]power.PDUPairID),
		deps:      make(map[int]workload.Deployment),
	}
}

// capPow is d's post-shave power as the room's safety state counts it.
func (s *state) capPow(d workload.Deployment) power.Watts {
	return power.Watts(float64(d.CapPower()) / s.room.oversub())
}

// canPlace reports whether deployment d fits on pair pid without violating
// space, cooling, normal-capacity, or any-failure safety constraints.
func (s *state) canPlace(d workload.Deployment, pid power.PDUPairID) bool {
	if s.slotsLeft[pid] < d.Racks {
		return false
	}
	if s.rows != nil && s.rows.fit(pid, d.Racks) == nil {
		return false
	}
	if s.room.PairCapacity > 0 &&
		s.pairPow[pid]+d.TotalPower() > s.room.PairCapacity+power.CapacityTolerance {
		return false
	}
	if s.room.CoolingCFM > 0 {
		if float64(s.placedPow+d.TotalPower())*s.room.CFMPerWatt > s.room.CoolingCFM+1e-6 {
			return false
		}
	}
	pair := s.room.Topo.Pairs[pid]
	return s.safety.Fits(pair.UPSes[0], pair.UPSes[1], d.TotalPower(), s.capPow(d))
}

// place commits deployment d to pair pid. Callers must have verified
// canPlace.
func (s *state) place(d workload.Deployment, pid power.PDUPairID) {
	s.occupy(d, pid)
	s.placed[d.ID] = pid
	s.deps[d.ID] = d
}

// remove reverses place.
func (s *state) remove(d workload.Deployment, pid power.PDUPairID) {
	s.vacate(d, pid)
	delete(s.placed, d.ID)
	delete(s.deps, d.ID)
}

// occupy charges d to pair pid in the row allocation and every table but
// leaves the placed set alone: refinement moves a placed deployment from
// pair to pair and records only where it ends up. Callers must have
// verified canPlace.
func (s *state) occupy(d workload.Deployment, pid power.PDUPairID) {
	if s.rows != nil {
		take := s.rows.fit(pid, d.Racks)
		if take == nil {
			panic("placement: place without canPlace (row fit)")
		}
		s.rows.place(d.ID, take)
	}
	s.account(d, pid, 1)
}

// vacate reverses occupy, freeing d's slots and load contributions. The
// returned token restores the exact row allocation via restoreAt (nil
// when rows are disabled).
func (s *state) vacate(d workload.Deployment, pid power.PDUPairID) []rowUse {
	var token []rowUse
	if s.rows != nil {
		token = s.rows.remove(d.ID)
	}
	s.account(d, pid, -1)
	return token
}

// restoreAt undoes a vacate exactly: it re-occupies pid reusing the vacate
// token's row allocation. It bypasses canPlace — the caller is returning
// the state to a configuration that was valid moments ago.
func (s *state) restoreAt(d workload.Deployment, pid power.PDUPairID, token []rowUse) {
	if s.rows != nil {
		s.rows.restore(d.ID, token)
	}
	s.account(d, pid, 1)
}

// account adds (sign 1) or removes (sign -1) d's slots and power on pair
// pid in every table except the row allocation and the placed set.
func (s *state) account(d workload.Deployment, pid power.PDUPairID, sign int) {
	pair := s.room.Topo.Pairs[pid]
	a, b := pair.UPSes[0], pair.UPSes[1]
	pow := power.Watts(sign) * d.TotalPower()
	capPow := power.Watts(sign) * s.capPow(d)
	throttle := power.Watts(sign) * power.Watts(float64(d.ThrottleRecoverablePower())/s.room.oversub())
	s.slotsLeft[pid] -= sign * d.Racks
	s.pairPow[pid] += pow
	s.safety.Add(a, b, pow, capPow)
	s.throttle.Add(a, b, 0, throttle)
	s.placedPow += pow
	s.placedCapPow += capPow
}

// deploymentsByID exposes the placed deployments for refinement passes.
func (s *state) deploymentsByID() map[int]workload.Deployment { return s.deps }

// imbalance computes the throttling-imbalance metric from the incremental
// bookkeeping: for every (failed, survivor) UPS combination, the fraction
// of the survivor's capacity that throttling must recover in the worst
// case (non-SR failover load minus capacity), spread max minus min.
func (s *state) imbalance() float64 {
	topo := s.room.Topo
	first := true
	var maxR, minR float64
	for f := range topo.UPSes {
		for u := range topo.UPSes {
			if u == f {
				continue
			}
			cap := float64(topo.UPSes[u].Capacity)
			ff, uu := power.UPSID(f), power.UPSID(u)
			need := float64(s.safety.Failover(ff, uu)+s.throttle.Failover(ff, uu)) - cap
			if need < 0 {
				need = 0
			}
			r := need / cap
			if first {
				maxR, minR, first = r, r, false
			} else {
				if r > maxR {
					maxR = r
				}
				if r < minR {
					minR = r
				}
			}
		}
	}
	if first {
		return 0
	}
	return maxR - minR
}

// result materializes the placement.
func (s *state) result(trace []workload.Deployment) *Placement {
	return &Placement{
		Room:        s.room,
		Deployments: trace,
		Assignments: s.placed,
	}
}
