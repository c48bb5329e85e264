// Package power models the distributed-redundant datacenter power delivery
// infrastructure that Flex manages (paper §II-A, Figure 2).
//
// The model is parametric in the redundancy design xN/y: a room has x UPS
// devices, each IT rack is fed by a PDU-pair connected to two distinct
// upstream UPSes in an active-active configuration, and the PDU-pairs are
// spread across UPS combinations so that each UPS shares roughly 1/(x-1) of
// its load with each other UPS. When a UPS fails, its share of every
// PDU-pair it feeds transfers instantaneously to the pair's other UPS.
//
// The package provides normal-operation and failover load flow (paper
// Equations 2 and 4), the UPS allocation limit (capacity × y/x), overload
// trip curves (Figure 6), and a cascading-failure simulation.
package power

import "fmt"

// Watts is electrical power in watts. All power quantities in this
// repository are expressed in Watts.
type Watts float64

// KW and MW are convenience multipliers: 14.4 * power.KW.
const (
	KW Watts = 1e3
	MW Watts = 1e6
)

// String renders the power with an adaptive unit.
func (w Watts) String() string {
	switch {
	case w >= MW || w <= -MW:
		return fmt.Sprintf("%.2fMW", float64(w)/1e6)
	case w >= KW || w <= -KW:
		return fmt.Sprintf("%.1fkW", float64(w)/1e3)
	default:
		return fmt.Sprintf("%.0fW", float64(w))
	}
}

// Redundancy describes an xN/y distributed-redundant design: x active
// supplies jointly carry a load that must survive the loss of any one
// supply while staying within the remaining supplies' rated capacity when
// the room is operated conventionally (i.e. with reserved power).
//
// The paper's production design is 4N/3 (X=4, Y=3). N+1 and 2N map onto
// this scheme as {X: n + 1, Y: n} and {X: 2, Y: 1} respectively for
// capacity accounting, although their wiring differs.
type Redundancy struct {
	X int // number of active supplies (UPSes)
	Y int // supplies that must be able to carry the full allocated load
}

// Validate reports whether the design is meaningful (X > Y >= 1) and small
// enough for a UPSSet (X <= MaxUPSes).
func (r Redundancy) Validate() error {
	if r.Y < 1 || r.X <= r.Y {
		return fmt.Errorf("power: invalid redundancy %dN/%d: need X > Y >= 1", r.X, r.Y)
	}
	if r.X > MaxUPSes {
		return fmt.Errorf("power: redundancy %dN/%d has more than %d UPSes", r.X, r.Y, MaxUPSes)
	}
	return nil
}

// String renders the design in the paper's "4N/3" notation.
func (r Redundancy) String() string { return fmt.Sprintf("%dN/%d", r.X, r.Y) }

// AllocationLimitFraction is the fraction of each UPS's capacity that a
// conventional (non-Flex) datacenter may allocate: y/x (paper §II-A).
func (r Redundancy) AllocationLimitFraction() float64 {
	return float64(r.Y) / float64(r.X)
}

// ReservedFraction is the fraction of provisioned power a conventional
// datacenter keeps reserved: 1 - y/x.
func (r Redundancy) ReservedFraction() float64 {
	return 1 - r.AllocationLimitFraction()
}

// ExtraServersFraction is the relative increase in deployable servers when
// Flex allocates all reserved power: x/y - 1 (33% for 4N/3).
func (r Redundancy) ExtraServersFraction() float64 {
	return float64(r.X)/float64(r.Y) - 1
}

// WorstCaseFailoverFraction is the worst-case load on a surviving UPS
// during a single-supply failover at 100% utilization of provisioned power,
// as a fraction of UPS capacity: x/(x-1) ... for the paper's 4N/3 design
// each surviving UPS takes 4/3 ≈ 133% of its rating.
func (r Redundancy) WorstCaseFailoverFraction() float64 {
	return float64(r.X) / float64(r.X-1)
}
