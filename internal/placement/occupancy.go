package placement

import (
	"flex/internal/power"
	"flex/internal/workload"
)

// coolingSlack is the airflow, in CFM, by which placed power may exceed
// Room.CoolingCFM: the cooling counterpart of power.CapacityTolerance.
const coolingSlack = 1e-6

// Limit is the room limit that refuses a deployment on a pair, or Fits.
// The refusals come in the order Check tries them — the room-wide budgets,
// then the pair's space, its UPSes' Eq. 2 and Eq. 4, its rating — so the
// limit that stopped the candidate that got furthest is a max.
type Limit uint8

const (
	Fits                 Limit = iota // no limit refuses
	OverCooling                       // the room's airflow budget
	OverDiversityReserve              // cumulative post-shave power over the failover budget
	OverSlots                         // no rack space (or, with rows, no contiguous run)
	OverNormalLimit                   // Eq. 2 on a UPS of the pair
	OverFailoverCapacity              // Eq. 4 on a UPS of the pair
	OverPairRating                    // the pair's busway rating
)

// CapPow is d's post-shave power as the room's Eq. 4 counts it: CapPow_d
// (Eq. 3) divided by the oversubscription factor, since normal-operation
// capping bounds an allocation's realized draw by its nameplate over that
// factor.
//
//flex:hotpath
func (r *Room) CapPow(d workload.Deployment) power.Watts {
	return power.Watts(float64(d.CapPower()) / r.oversub())
}

// diversityBudget is the failover budget the room's cumulative post-shave
// power is kept within (y/x of provisioned power): a room whose post-shave
// load equals surviving capacity at full fill can still take any future
// mix, so early non-shaveable-heavy arrivals cannot strand the rest (paper
// §IV: lack of workload diversity strands power).
func (r *Room) diversityBudget() power.Watts {
	return power.Watts(float64(r.Topo.ProvisionedPower()) * r.Topo.Design.AllocationLimitFraction())
}

// Occupancy is one room's residual state, the one thing every placement
// passes through — the batch policies' state and the online admitter hold
// one each: free slots and allocated power per pair, the Eq. 2 / Eq. 4
// ledger, and the placed and post-shave totals behind the cooling and
// diversity budgets. Check names the limit that refuses an addition;
// RoomLimit, UPSLimit and BestPair are its steps, for callers that share
// the room-wide and per-UPS answers across pairs. Add and Remove commit and
// reverse one. Not safe for concurrent use.
type Occupancy struct {
	room *Room
	// rows is the batch state's row allocation when the room models rows:
	// a pair has space only where a contiguous run of its rows fits. The
	// state places and frees rows; the occupancy only reads them.
	rows      *rowState
	slotsLeft []int
	pairPow   []power.Watts
	safety    *power.Ledger
	placedPow power.Watts
	// placedCapPow is the post-shave (CapPow) total.
	placedCapPow power.Watts
	// capBudget is the diversity reserve's budget; the airflow budget is
	// the room's CoolingCFM.
	capBudget power.Watts
}

// NewOccupancy returns an empty room's occupancy.
func NewOccupancy(room *Room) *Occupancy {
	return &Occupancy{
		room:      room,
		slotsLeft: append([]int(nil), room.SlotsPerPair...),
		pairPow:   make([]power.Watts, len(room.Topo.Pairs)),
		safety:    room.NewLedger(),
		capBudget: room.diversityBudget(),
	}
}

// Check returns the first limit, in Limit order, that refuses d on pair
// pid, or Fits.
func (o *Occupancy) Check(d workload.Deployment, pid power.PDUPairID) Limit {
	pow, capPow := d.TotalPower(), o.room.CapPow(d)
	if l := o.RoomLimit(o.placedPow+pow, o.placedCapPow+capPow); l != Fits {
		return l
	}
	if o.slotsLeft[pid] < d.Racks || !o.rowsFit(pid, d.Racks) {
		return OverSlots
	}
	ups := o.room.Topo.Pairs[pid].UPSes
	if l := o.UPSLimit(ups[0], ups[1], pow, capPow); l != Fits {
		return l
	}
	if o.overRating(pid, pow) {
		return OverPairRating
	}
	return Fits
}

// RoomLimit returns the room-wide limit that refuses placed and post-shave
// totals of pow and capPow — the airflow budget, then the diversity
// reserve — or Fits.
//
//flex:hotpath
func (o *Occupancy) RoomLimit(pow, capPow power.Watts) Limit {
	if r := o.room; r.CoolingCFM > 0 && float64(pow)*r.CFMPerWatt > r.CoolingCFM+coolingSlack {
		return OverCooling
	}
	if capPow > o.capBudget+power.CapacityTolerance {
		return OverDiversityReserve
	}
	return Fits
}

// UPSLimit returns the safety equation that refuses pow more allocated
// power (capPow more post-shave) on a pair fed by UPSes a and b — Eq. 2,
// then Eq. 4 — or Fits. Every pair of one UPS combination gets the same
// answer.
//
//flex:hotpath
func (o *Occupancy) UPSLimit(a, b power.UPSID, pow, capPow power.Watts) Limit {
	switch o.safety.Check(a, b, pow, capPow) {
	case power.OverNormalLimit:
		return OverNormalLimit
	case power.OverFailoverCapacity:
		return OverFailoverCapacity
	}
	return Fits
}

// BestPair returns the pair among pairs that takes racks more racks and
// pow more power best by space — the smallest sufficient free space, the
// first on ties — within its rating. It checks only space and rating, so
// pairs should share their UPSes (one combination's). Without such a pair
// it returns -1 and OverSlots, or OverPairRating when a pair had the space.
//
//flex:hotpath
func (o *Occupancy) BestPair(pairs []power.PDUPairID, racks int, pow power.Watts) (power.PDUPairID, Limit) {
	best, bestFree, why := power.PDUPairID(-1), int(^uint(0)>>1), OverSlots
	for _, pid := range pairs {
		free := o.slotsLeft[pid]
		if free < racks || free >= bestFree || !o.rowsFit(pid, racks) {
			continue
		}
		if o.overRating(pid, pow) {
			why = OverPairRating
			continue
		}
		best, bestFree = pid, free
	}
	if best < 0 {
		return -1, why
	}
	return best, Fits
}

// rowsFit reports whether pair pid has a run of rows for racks (always,
// when the room models no rows).
func (o *Occupancy) rowsFit(pid power.PDUPairID, racks int) bool {
	return o.rows == nil || o.rows.run(pid, racks) >= 0
}

// overRating reports whether pow more power would take pair pid over its
// rating.
func (o *Occupancy) overRating(pid power.PDUPairID, pow power.Watts) bool {
	return o.room.PairCapacity > 0 && o.pairPow[pid]+pow > o.room.PairCapacity+power.CapacityTolerance
}

// Add commits d to pair pid. It checks nothing: callers have, or are
// returning to a state that held a moment ago.
//
//flex:hotpath
func (o *Occupancy) Add(d workload.Deployment, pid power.PDUPairID) { o.account(d, pid, 1) }

// Remove reverses Add.
//
//flex:hotpath
func (o *Occupancy) Remove(d workload.Deployment, pid power.PDUPairID) { o.account(d, pid, -1) }

func (o *Occupancy) account(d workload.Deployment, pid power.PDUPairID, sign int) {
	ups := o.room.Topo.Pairs[pid].UPSes
	pow := power.Watts(sign) * d.TotalPower()
	capPow := power.Watts(sign) * o.room.CapPow(d)
	o.slotsLeft[pid] -= sign * d.Racks
	o.pairPow[pid] += pow
	o.safety.Add(ups[0], ups[1], pow, capPow)
	o.placedPow += pow
	o.placedCapPow += capPow
}

// Placed returns the placed allocated and post-shave totals.
//
//flex:hotpath
func (o *Occupancy) Placed() (pow, capPow power.Watts) { return o.placedPow, o.placedCapPow }

// Ledger returns the Eq. 2 / Eq. 4 state of everything placed. It is the
// occupancy's own: callers read it or copy it (Ledger.CopyFrom), never add
// to it.
//
//flex:hotpath
func (o *Occupancy) Ledger() *power.Ledger { return o.safety }
