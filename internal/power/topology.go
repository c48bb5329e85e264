package power

import (
	"fmt"
)

// UPSID identifies a UPS within a Topology (0-based, dense).
type UPSID int

// PDUPairID identifies a PDU-pair within a Topology (0-based, dense).
type PDUPairID int

// UPS is an uninterruptible power supply. Its Capacity is the rated
// continuous output; overload behaviour is governed by a TripCurve.
type UPS struct {
	ID       UPSID
	Name     string
	Capacity Watts
}

// PDUPair is a pair of power distribution units feeding a set of racks in
// active-active mode. Each PDU of the pair is connected to one of the two
// distinct upstream UPSes, so under normal operation each UPS carries half
// of the pair's load, and during failover of one UPS the other carries all
// of it (paper Figure 2).
type PDUPair struct {
	ID    PDUPairID
	Name  string
	UPSes [2]UPSID // the two distinct upstream UPSes; UPSes[0] < UPSes[1]
}

// Topology is the electrical topology of one datacenter room: the
// redundancy design, the UPS fleet, and the PDU-pairs with their upstream
// mapping. Topologies are immutable after construction.
type Topology struct {
	Design Redundancy
	UPSes  []UPS
	Pairs  []PDUPair
}

// RoomConfig configures NewRoom.
type RoomConfig struct {
	// Design is the redundancy pattern at the UPS level, e.g. {X:4, Y:3}.
	Design Redundancy
	// UPSCapacity is the rated capacity of each UPS. The room's provisioned
	// power is Design.X × UPSCapacity.
	UPSCapacity Watts
	// PairsPerCombination is how many PDU-pairs to instantiate for each
	// unordered combination of two distinct UPSes. With X=4 there are 6
	// combinations; PairsPerCombination=3 yields 18 PDU-pairs.
	PairsPerCombination int
}

// NewRoom builds the room topology used throughout the paper: x UPSes of
// equal capacity and PDU-pairs spread uniformly across all C(x,2) UPS
// combinations, which realizes the "each UPS shares roughly 1/(x-1) of its
// load with each other UPS" property of the distributed-redundant design.
func NewRoom(cfg RoomConfig) (*Topology, error) {
	if err := cfg.Design.Validate(); err != nil {
		return nil, err
	}
	if cfg.UPSCapacity <= 0 {
		return nil, fmt.Errorf("power: UPS capacity must be positive, got %v", cfg.UPSCapacity)
	}
	if cfg.PairsPerCombination < 1 {
		return nil, fmt.Errorf("power: PairsPerCombination must be >= 1, got %d", cfg.PairsPerCombination)
	}
	t := &Topology{Design: cfg.Design}
	for i := 0; i < cfg.Design.X; i++ {
		t.UPSes = append(t.UPSes, UPS{
			ID:       UPSID(i),
			Name:     fmt.Sprintf("UPS-%d", i+1),
			Capacity: cfg.UPSCapacity,
		})
	}
	for a := 0; a < cfg.Design.X; a++ {
		for b := a + 1; b < cfg.Design.X; b++ {
			for k := 0; k < cfg.PairsPerCombination; k++ {
				id := PDUPairID(len(t.Pairs))
				t.Pairs = append(t.Pairs, PDUPair{
					ID:    id,
					Name:  fmt.Sprintf("PDU-%d%d-%c", a+1, b+1, 'a'+k),
					UPSes: [2]UPSID{UPSID(a), UPSID(b)},
				})
			}
		}
	}
	return t, nil
}

// NewCustomTopology builds a topology from an explicit UPS list and
// PDU-pair→UPS mapping, validating the mapping, for rooms NewRoom cannot
// describe.
//
//flex:keep it builds the heterogeneous rooms of placement's hetero_test and online's reference test
func NewCustomTopology(design Redundancy, upses []UPS, pairs []PDUPair) (*Topology, error) {
	if err := design.Validate(); err != nil {
		return nil, err
	}
	if len(upses) != design.X {
		return nil, fmt.Errorf("power: design %v needs %d UPSes, got %d", design, design.X, len(upses))
	}
	t := &Topology{Design: design, UPSes: upses, Pairs: pairs}
	for i, u := range upses {
		if u.ID != UPSID(i) {
			return nil, fmt.Errorf("power: UPS %d has ID %d; IDs must be dense and ordered", i, u.ID)
		}
		if u.Capacity <= 0 {
			return nil, fmt.Errorf("power: UPS %s has non-positive capacity", u.Name)
		}
	}
	for i, p := range pairs {
		if p.ID != PDUPairID(i) {
			return nil, fmt.Errorf("power: pair %d has ID %d; IDs must be dense and ordered", i, p.ID)
		}
		a, b := p.UPSes[0], p.UPSes[1]
		if a == b {
			return nil, fmt.Errorf("power: pair %s connects to a single UPS", p.Name)
		}
		if int(a) < 0 || int(a) >= len(upses) || int(b) < 0 || int(b) >= len(upses) {
			return nil, fmt.Errorf("power: pair %s references unknown UPS", p.Name)
		}
	}
	return t, nil
}

// ProvisionedPower is the sum of all UPS capacities — the paper's
// "provisioned" power (reserve plus non-reserve).
func (t *Topology) ProvisionedPower() Watts {
	var sum Watts
	for _, u := range t.UPSes {
		sum += u.Capacity
	}
	return sum
}

// ConventionalAllocatablePower is the power a non-Flex datacenter may
// allocate: provisioned × y/x. A Flex datacenter allocates the full
// provisioned power instead.
func (t *Topology) ConventionalAllocatablePower() Watts {
	return Watts(float64(t.ProvisionedPower()) * t.Design.AllocationLimitFraction())
}
