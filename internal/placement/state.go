package placement

import (
	"flex/internal/power"
	"flex/internal/workload"
)

// state is the bookkeeping every batch policy places through, so every
// produced placement is safe by construction: the room's Occupancy, plus
// what only the batch policies need around it — the row allocation, the
// throttle ledger and the placed set.
type state struct {
	room *Room
	rows *rowState // nil unless row modelling is enabled
	occ  *Occupancy
	// throttle holds, in its failover table, the failover-weighted power
	// recoverable by throttling alone (cap-able deployments only); used by
	// Flex-Offline's balance term and the imbalance metric.
	throttle *power.Ledger
	placed   map[int]power.PDUPairID
	deps     map[int]workload.Deployment // placed deployments by ID
}

func newState(room *Room) *state {
	rows, err := newRowState(room)
	if err != nil {
		// Room misconfiguration is a programming error at this level;
		// Policy implementations surface it before building state.
		panic(err)
	}
	occ := NewOccupancy(room)
	occ.rows = rows
	return &state{
		room:     room,
		rows:     rows,
		occ:      occ,
		throttle: power.NewLedger(room.Topo, nil),
		placed:   make(map[int]power.PDUPairID),
		deps:     make(map[int]workload.Deployment),
	}
}

// canPlace reports whether deployment d fits on pair pid: the occupancy,
// which reads the row allocation for space, finds no limit.
func (s *state) canPlace(d workload.Deployment, pid power.PDUPairID) bool {
	return s.occ.Check(d, pid) == Fits
}

// place commits deployment d to pair pid. Callers must have verified
// canPlace.
func (s *state) place(d workload.Deployment, pid power.PDUPairID) {
	s.occupy(d, pid, nil)
	s.placed[d.ID] = pid
	s.deps[d.ID] = d
}

// occupy charges d to pair pid in the row allocation, the occupancy and
// the throttle ledger but leaves the placed set alone: refinement moves a
// placed deployment from pair to pair and records only where it ends up.
// take is the row allocation a vacate returned, when the state is being
// returned to where it stood a moment ago (it bypasses canPlace); nil fits
// the rows afresh, and callers must have verified canPlace.
func (s *state) occupy(d workload.Deployment, pid power.PDUPairID, take []rowUse) {
	if s.rows != nil {
		if take == nil {
			take = s.rows.fit(pid, d.Racks)
		}
		if take == nil {
			panic("placement: place without canPlace (row fit)")
		}
		s.rows.place(d.ID, take)
	}
	s.occ.Add(d, pid)
	s.addThrottle(d, pid, 1)
}

// vacate reverses occupy, freeing d's slots and load contributions. The
// returned token restores the exact row allocation through occupy (nil
// when rows are disabled).
func (s *state) vacate(d workload.Deployment, pid power.PDUPairID) []rowUse {
	var token []rowUse
	if s.rows != nil {
		token = s.rows.remove(d.ID)
	}
	s.occ.Remove(d, pid)
	s.addThrottle(d, pid, -1)
	return token
}

// addThrottle adds (sign 1) or removes (sign -1) d's throttle-recoverable
// power on pair pid. Only cap-able deployments have any; adding zero would
// change no cell.
func (s *state) addThrottle(d workload.Deployment, pid power.PDUPairID, sign int) {
	recoverable := d.ThrottleRecoverablePower()
	if recoverable == 0 {
		return
	}
	ups := s.room.Topo.Pairs[pid].UPSes
	s.throttle.Add(ups[0], ups[1], 0, power.Watts(sign)*power.Watts(float64(recoverable)/s.room.oversub()))
}

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
			need := float64(s.occ.safety.Failover(ff, uu)+s.throttle.Failover(ff, uu)) - cap
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
