package online

import (
	"math"
	"math/rand"
	"testing"

	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/workload"
)

// FuzzOccupancyMatchesScratch holds placement.Occupancy to a from-scratch
// recompute over random small rooms (scoreFuzzAdmitter's) and a random
// admit/remove sawtooth. The admitter decides; a second occupancy, built on
// the same room as the batch policies' state builds one, follows it. At
// every arrival the follower's Check on a fuzzed pair must name the limit
// recomputed from the placement's pair loads (the first in Limit order that
// refuses, unless one is within rounding of its bound), and must take the
// pair the admitter chose. After every step the follower's ledger and
// totals must equal Topology.UPSLoads and FailoverLoads of the pair loads,
// and the placement must pass Validate. The post-shave power is recomputed
// here from CapPower and the oversubscription factor, not through
// Room.CapPow.
func FuzzOccupancyMatchesScratch(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		buf := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(buf)
		// The same arrivals, then a drain: every fourth byte 0 is a removal.
		drain := append(append([]byte(nil), buf...), make([]byte, 4*40)...)
		f.Add(drain)
	}
	// 4N/3 rooms of 0.5 MW UPSes with room to spare: cooling and
	// oversubscription, then the pair rating, bind before the space does.
	for _, header := range [][]byte{{2, 2, 1, 40, 1 | 4, 0, 0, 0, 0}, {2, 2, 1, 40, 2 | 4, 0, 0, 0, 0}} {
		buf := make([]byte, 400)
		rand.New(rand.NewSource(7)).Read(buf)
		f.Add(append(header, buf...))
	}
	// 4N/3, one pair per combo rated 300 kW: 280 kW lands on pair 0, then
	// 20 kW + 1 W probes it, 1 W over the rating and inside the tolerance.
	f.Add([]byte{2, 2, 0, 40, 2, 3, 3, 3, 3, 1, 0, 13, 15, 1, 0, 0, 15 | 1<<6})
	f.Fuzz(func(t *testing.T, data []byte) {
		adm, ops := scoreFuzzAdmitter(t, data)
		room := adm.room
		topo := room.Topo
		oversub := max(room.Oversubscription, 1)
		budget := power.Watts(float64(topo.ProvisionedPower()) * topo.Design.AllocationLimitFraction())
		occ := placement.NewOccupancy(room)

		// The placement from scratch.
		var live []workload.Deployment
		assigned := map[int]power.PDUPairID{}
		full, shaved := power.NewPairLoad(topo), power.NewPairLoad(topo)
		used := make([]int, len(topo.Pairs))
		var total, totalCap power.Watts
		var gross float64 // total power moved: the scale rounding error grows with
		move := func(d workload.Deployment, pid power.PDUPairID, sign int) {
			full[pid] += power.Watts(sign) * d.TotalPower()
			shaved[pid] += power.Watts(sign) * power.Watts(float64(d.CapPower())/oversub)
			used[pid] += sign * d.Racks
			total += power.Watts(sign) * d.TotalPower()
			totalCap += power.Watts(sign) * power.Watts(float64(d.CapPower())/oversub)
			gross += float64(d.TotalPower())
		}

		// scratchLimit is Check's answer recomputed: the first limit, in
		// Limit order, that d on pid breaks, and whether a left-hand side
		// up to it lies within rounding of its bound.
		scratchLimit := func(d workload.Deployment, pid power.PDUPairID) (placement.Limit, bool) {
			pow, capPow := d.TotalPower(), power.Watts(float64(d.CapPower())/oversub)
			eps := 1e-9 * math.Max(1, gross+float64(pow))
			over := func(lhs, rhs, scale float64) (refuses, ambiguous bool) {
				if scale > 0 && math.Abs(lhs-rhs) <= eps*scale {
					return false, true
				}
				return lhs > rhs, false
			}
			type bound struct {
				lim           placement.Limit
				lhs, rhs, per float64
			}
			var bounds []bound
			if room.CoolingCFM > 0 {
				bounds = append(bounds, bound{placement.OverCooling, float64(total+pow) * room.CFMPerWatt, room.CoolingCFM + 1e-6, math.Max(room.CFMPerWatt, 1)})
			}
			bounds = append(bounds,
				bound{placement.OverDiversityReserve, float64(totalCap + capPow), float64(budget + power.CapacityTolerance), 1},
				bound{placement.OverSlots, float64(used[pid] + d.Racks), float64(room.SlotsPerPair[pid]), 0})
			withD, shavedD := append(power.PairLoad(nil), full...), append(power.PairLoad(nil), shaved...)
			withD[pid] += pow
			shavedD[pid] += capPow
			pair := topo.Pairs[pid].UPSes
			normal := topo.UPSLoads(withD)
			for _, u := range pair {
				bounds = append(bounds, bound{placement.OverNormalLimit, float64(normal[u]), float64(room.NormalLimit(u) + power.CapacityTolerance), 1})
			}
			for fail := range topo.UPSes {
				loads := topo.FailoverLoads(shavedD, power.UPSID(fail))
				for _, u := range pair {
					if u != power.UPSID(fail) {
						bounds = append(bounds, bound{placement.OverFailoverCapacity, float64(loads[u]), float64(topo.UPSes[u].Capacity + power.CapacityTolerance), 1})
					}
				}
			}
			if room.PairCapacity > 0 {
				bounds = append(bounds, bound{placement.OverPairRating, float64(withD[pid]), float64(room.PairCapacity + power.CapacityTolerance), 1})
			}
			// Within one limit every bound is checked; the first limit
			// with a refusing bound is the answer.
			refused := placement.Fits
			for _, b := range bounds {
				if refused != placement.Fits && b.lim != refused {
					break
				}
				refuses, ambiguous := over(b.lhs, b.rhs, b.per)
				if ambiguous {
					return 0, true
				}
				if refuses {
					refused = b.lim
				}
			}
			return refused, false
		}

		holds := func(step string, id int) {
			t.Helper()
			eps := power.Watts(1e-9 * math.Max(1, gross))
			ledger := occ.Ledger()
			normal := topo.UPSLoads(full)
			for fail := range topo.UPSes {
				ff := power.UPSID(fail)
				if d := ledger.Normal(ff) - normal[fail]; d > eps || d < -eps {
					t.Fatalf("%s %d: normal load of UPS %d = %v, recomputed %v", step, id, fail, ledger.Normal(ff), normal[fail])
				}
				loads := topo.FailoverLoads(shaved, ff)
				for u := range topo.UPSes {
					if d := ledger.Failover(ff, power.UPSID(u)) - loads[u]; u != fail && (d > eps || d < -eps) {
						t.Fatalf("%s %d: failover load [%d][%d] = %v, recomputed %v", step, id, fail, u, ledger.Failover(ff, power.UPSID(u)), loads[u])
					}
				}
			}
			pow, capPow := occ.Placed()
			if d, dc := pow-total, capPow-totalCap; d > eps || d < -eps || dc > eps || dc < -eps {
				t.Fatalf("%s %d: placed %v and %v post-shave, recomputed %v and %v", step, id, pow, capPow, total, totalCap)
			}
			pl := placement.Placement{Room: room, Deployments: live, Assignments: assigned}
			if err := pl.Validate(); err != nil {
				t.Fatalf("%s %d: %v", step, id, err)
			}
		}

		for id := 0; len(ops) >= 4; ops, id = ops[4:], id+1 {
			if ops[0]%4 == 0 {
				if len(live) > 0 {
					i := int(ops[1]) % len(live)
					d := live[i]
					pid := assigned[d.ID]
					if !adm.Remove(d.ID) {
						t.Fatalf("admitter lost deployment %d", d.ID)
					}
					occ.Remove(d, pid)
					move(d, pid, -1)
					live = append(live[:i], live[i+1:]...)
					delete(assigned, d.ID)
					holds("remove", d.ID)
				}
				continue
			}
			d := fuzzDeployment(id, ops)
			// Up to 3 W more a rack, so that a sum can land inside a
			// limit's CapacityTolerance.
			d.PowerPerRack += power.Watts(ops[3] >> 6)
			probe := power.PDUPairID(int(ops[0]>>2) % len(topo.Pairs))
			if want, ambiguous := scratchLimit(d, probe); !ambiguous {
				if got := occ.Check(d, probe); got != want {
					t.Fatalf("arrival %d on pair %d: Check says %s, recomputed %s", id, probe, limitName(got), limitName(want))
				}
			}
			pid, ok := adm.Admit(d)
			if !ok {
				continue
			}
			if got := occ.Check(d, pid); got != placement.Fits {
				t.Fatalf("arrival %d: the admitter took pair %d, the occupancy refuses it with %s", id, pid, limitName(got))
			}
			occ.Add(d, pid)
			move(d, pid, 1)
			live = append(live, d)
			assigned[d.ID] = pid
			holds("admit", id)
		}
	})
}

// limitName is a limit's label, "fits" for none.
func limitName(l placement.Limit) string {
	if l == placement.Fits {
		return "fits"
	}
	return reasonNames[l]
}
