// Package placement implements Flex-Offline (paper §IV-B, §V-A): placing
// short-term-demand server deployments onto the PDU-pairs of a
// distributed-redundant room so that
//
//   - every deployment lands under exactly one PDU-pair (Eq. 1),
//   - normal-operation UPS loads stay within rated capacity (Eq. 2),
//   - for every single-UPS failure, the post-shave loads (using each
//     deployment's CapPow, Eq. 3) stay within the surviving UPSes' rated
//     capacity even at 100% utilization (Eq. 4), and
//   - stranded power (Eq. 5) is minimized.
//
// Alongside the ILP-based Flex-Offline policy the package implements the
// baseline policies the paper evaluates (Random, Balanced Round-Robin) and
// discusses (First-Fit, plain Round-Robin), plus the two evaluation
// metrics: stranded power and throttling imbalance.
package placement

import (
	"context"
	"fmt"

	"flex/internal/power"
	"flex/internal/workload"
)

// Room couples the electrical topology with physical space: every PDU-pair
// feeds a fixed number of rack slots (the paper's rows are folded into
// their PDU-pair: each row is fed by exactly one PDU-pair).
type Room struct {
	Topo *power.Topology
	// SlotsPerPair is the rack capacity under each PDU-pair, indexed by
	// PDUPairID.
	SlotsPerPair []int
	// CoolingCFM, when positive, caps the room's aggregate airflow; placed
	// power consumes CFMPerWatt of it (paper §VI "Implications on cooling
	// infrastructure"). Zero disables the constraint.
	CoolingCFM float64
	// CFMPerWatt is the airflow each placed watt requires.
	CFMPerWatt float64
	// ReserveUtilization is the fraction of the reserved power allocated
	// to servers: 1 is the paper's full zero-reserved-power design; 0.42
	// is the §VI partial deployment Microsoft ran first, where throttling
	// alone covers every failover and no workload is ever shut down; 0 is
	// a conventional room. NewRoom sets it to 1.
	ReserveUtilization float64
	// RowsPerPair and RowSlots, when positive, enable row-level space
	// modelling (§V-A: deployments land on specific rows): each PDU-pair
	// feeds RowsPerPair rows of RowSlots racks, and a deployment occupies
	// a contiguous run of rows. They must multiply to SlotsPerPair.
	RowsPerPair, RowSlots int
	// PairCapacity, when positive, caps the allocated power under each
	// PDU-pair — the busway/PDU rating the paper's Eq. 4 formulation
	// omits "for brevity" but production placement must respect. Zero
	// disables the constraint.
	PairCapacity power.Watts
	// Oversubscription composes conventional power oversubscription with
	// Flex (paper §I: "allocated power that is underutilized can be
	// oversubscribed", via capping during normal operation as in Dynamo/
	// Thunderbolt). A value of 1.15 allocates 15% more nameplate power
	// than the room's limits on the premise that normal-operation capping
	// bounds the realized draw: allocation checks scale up by this factor
	// while the failover-safety worst case (Eq. 4) scales rack draws down
	// by it. NewRoom sets it to 1 (no oversubscription). Must be >= 1.
	Oversubscription float64
}

// NormalLimit is the per-UPS allocation limit during normal operation:
// capacity × (y/x + ReserveUtilization × (1 − y/x)) × Oversubscription.
// At full reserve utilization and no oversubscription this is the UPS's
// rated capacity (the Flex Eq. 2 form); at zero reserve utilization it is
// the conventional y/x limit.
func (r *Room) NormalLimit(u power.UPSID) power.Watts {
	frac := r.Topo.Design.AllocationLimitFraction()
	frac += r.ReserveUtilization * (1 - frac)
	return power.Watts(frac * float64(r.Topo.UPSes[u].Capacity) * r.oversub())
}

// NewLedger returns an empty safety ledger for the room: Eq. 2 against
// the room's per-UPS NormalLimit, Eq. 4 against rated capacity. The
// room's Occupancy keeps its committed state in one.
func (r *Room) NewLedger() *power.Ledger {
	limits := make([]power.Watts, len(r.Topo.UPSes))
	for u := range limits {
		limits[u] = r.NormalLimit(power.UPSID(u))
	}
	return power.NewLedger(r.Topo, limits)
}

func (r *Room) oversub() float64 {
	if r.Oversubscription < 1 {
		return 1
	}
	return r.Oversubscription
}

// AllocatablePower is the total power the room may allocate: the sum of
// the per-UPS normal limits.
func (r *Room) AllocatablePower() power.Watts {
	var sum power.Watts
	for u := range r.Topo.UPSes {
		sum += r.NormalLimit(power.UPSID(u))
	}
	return sum
}

// NewRoom builds a room with uniform slots per PDU-pair and no cooling
// constraint.
func NewRoom(topo *power.Topology, slotsPerPair int) (*Room, error) {
	if slotsPerPair <= 0 {
		return nil, fmt.Errorf("placement: slotsPerPair must be positive, got %d", slotsPerPair)
	}
	slots := make([]int, len(topo.Pairs))
	for i := range slots {
		slots[i] = slotsPerPair
	}
	return &Room{Topo: topo, SlotsPerPair: slots, ReserveUtilization: 1, Oversubscription: 1}, nil
}

// PartialReserveRoom builds a room that allocates only the given fraction
// of the reserved power (paper §VI: production starts at 42%, where no
// workload ever needs to be shut down — throttling covers every failover).
func PartialReserveRoom(topo *power.Topology, slotsPerPair int, reserveUtilization float64) (*Room, error) {
	if reserveUtilization < 0 || reserveUtilization > 1 {
		return nil, fmt.Errorf("placement: reserve utilization %v outside [0,1]", reserveUtilization)
	}
	room, err := NewRoom(topo, slotsPerPair)
	if err != nil {
		return nil, err
	}
	room.ReserveUtilization = reserveUtilization
	return room, nil
}

// PaperRoom builds the paper's §V-A evaluation room: a 9.6MW 4N/3 room
// (4 × 2.4MW UPSes), three PDU-pairs per UPS combination (18 pairs), with
// 60 rack slots per pair (space is deliberately
// non-binding: the paper treats power as the bottleneck resource, §II-C).
func PaperRoom() *Room {
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         2.4 * power.MW,
		PairsPerCombination: 3,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	room, err := NewRoom(topo, 60)
	if err != nil {
		panic(err)
	}
	return room
}

// EmulationRoom builds the paper's §V-C emulation room: 4 × 1.2MW UPSes
// (4.8MW, zero reserved power), 36 rows of 10 racks — six rows (60 slots)
// per UPS combination, one PDU-pair per combination.
func EmulationRoom() *Room {
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         1.2 * power.MW,
		PairsPerCombination: 1,
	})
	if err != nil {
		panic(err)
	}
	room, err := NewRoom(topo, 60)
	if err != nil {
		panic(err)
	}
	return room
}

// TotalSlots returns the room's total rack capacity.
func (r *Room) TotalSlots() int {
	n := 0
	for _, s := range r.SlotsPerPair {
		n += s
	}
	return n
}

// Placement is the result of running a policy: which PDU-pair each placed
// deployment went to. Deployments absent from Assignments were rejected
// (the paper routes those to other rooms).
type Placement struct {
	Room        *Room
	Deployments []workload.Deployment
	// Assignments maps deployment ID → PDU-pair.
	Assignments map[int]power.PDUPairID
}

// Placed returns the deployments that were placed.
func (p *Placement) Placed() []workload.Deployment {
	var out []workload.Deployment
	for _, d := range p.Deployments {
		if _, ok := p.Assignments[d.ID]; ok {
			out = append(out, d)
		}
	}
	return out
}

// Unplaced returns the rejected deployments.
func (p *Placement) Unplaced() []workload.Deployment {
	var out []workload.Deployment
	for _, d := range p.Deployments {
		if _, ok := p.Assignments[d.ID]; !ok {
			out = append(out, d)
		}
	}
	return out
}

// PairLoad returns the full allocated power per PDU-pair (Pow_d terms).
func (p *Placement) PairLoad() power.PairLoad {
	load := power.NewPairLoad(p.Room.Topo)
	for _, d := range p.Deployments {
		if pid, ok := p.Assignments[d.ID]; ok {
			load[pid] += d.TotalPower()
		}
	}
	return load
}

// CapPairLoad returns the post-shave power per PDU-pair (Room.CapPow
// terms): the worst-case load after Flex shuts down software-redundant
// racks and throttles cap-able racks to their flex power.
func (p *Placement) CapPairLoad() power.PairLoad {
	load := power.NewPairLoad(p.Room.Topo)
	for _, d := range p.Deployments {
		if pid, ok := p.Assignments[d.ID]; ok {
			load[pid] += p.Room.CapPow(d)
		}
	}
	return load
}

// Validate re-checks every constraint from scratch: space, normal-operation
// capacity (Eq. 2), and failover safety with maximal shaving (Eq. 4) for
// every possible UPS failure. It returns nil when the placement is safe.
func (p *Placement) Validate() error {
	topo := p.Room.Topo
	// Space.
	used := make([]int, len(topo.Pairs))
	for _, d := range p.Deployments {
		if pid, ok := p.Assignments[d.ID]; ok {
			if int(pid) < 0 || int(pid) >= len(topo.Pairs) {
				return fmt.Errorf("placement: deployment %d assigned to unknown pair %d", d.ID, pid)
			}
			used[pid] += d.Racks
		}
	}
	for pid, u := range used {
		if u > p.Room.SlotsPerPair[pid] {
			return fmt.Errorf("placement: pair %d uses %d slots of %d", pid, u, p.Room.SlotsPerPair[pid])
		}
	}
	// PDU-pair (busway) ratings.
	if p.Room.PairCapacity > 0 {
		pairPow := power.NewPairLoad(topo)
		for _, d := range p.Deployments {
			if pid, ok := p.Assignments[d.ID]; ok {
				pairPow[pid] += d.TotalPower()
			}
		}
		for pid, w := range pairPow {
			if w > p.Room.PairCapacity+power.CapacityTolerance {
				return fmt.Errorf("placement: pair %d allocates %v over its %v rating", pid, w, p.Room.PairCapacity)
			}
		}
	}
	// Cooling.
	if p.Room.CoolingCFM > 0 {
		needed := float64(p.PairLoad().Total()) * p.Room.CFMPerWatt
		if needed > p.Room.CoolingCFM+coolingSlack {
			return fmt.Errorf("placement: cooling demand %.0f CFM exceeds %.0f CFM", needed, p.Room.CoolingCFM)
		}
	}
	// Normal operation (Eq. 2): the per-UPS allocation limit is the rated
	// capacity at full reserve utilization, less for partial-reserve rooms.
	load := p.PairLoad()
	for u, w := range topo.UPSLoads(load) {
		if w > p.Room.NormalLimit(power.UPSID(u))+power.CapacityTolerance {
			return fmt.Errorf("placement: normal-operation load on UPS %d exceeds its allocation limit", u)
		}
	}
	// Failover with maximal shaving (Eq. 4) for every failure.
	capLoad := p.CapPairLoad()
	for f := range topo.UPSes {
		if !topo.FailoverWithinCapacity(capLoad, power.UPSID(f)) {
			return fmt.Errorf("placement: failure of UPS %d is unsafe even after maximal shaving", f)
		}
	}
	return nil
}

// Policy places a trace of deployment requests into a room. Place honors
// ctx: policies return early with context.Cause(ctx) when it is canceled,
// and deadline-aware policies (FlexOffline) budget their ILP solves
// against it.
type Policy interface {
	Name() string
	Place(ctx context.Context, room *Room, trace []workload.Deployment) (*Placement, error)
}
