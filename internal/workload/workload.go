// Package workload models the cloud workloads and server deployments Flex
// places and manages (paper §II-B, §II-C).
//
// Deployments are the unbreakable units of capacity growth: a number of
// racks with a per-rack power allocation, belonging to a named workload.
// Every workload falls in one of three categories — software-redundant
// (can be shut down during failover), non-redundant but cap-able (can be
// throttled down to a pre-defined "flex power"), and non-redundant
// non-cap-able (must not be touched).
package workload

import (
	"fmt"
	"math"

	"flex/internal/power"
)

// Category classifies a workload's tolerance to Flex corrective actions
// (paper §II-B).
type Category int

const (
	// SoftwareRedundant workloads (e.g. Web search, data analytics)
	// replicate across availability zones and tolerate rack shutdown.
	SoftwareRedundant Category = iota
	// NonRedundantCapable workloads (e.g. first-party VMs) cannot be shut
	// down but tolerate power capping down to their flex power.
	NonRedundantCapable
	// NonRedundantNonCapable workloads (e.g. GPU or storage clusters
	// without capping support) can be neither shut down nor throttled.
	NonRedundantNonCapable
)

// Categories lists all categories in canonical order.
var Categories = []Category{SoftwareRedundant, NonRedundantCapable, NonRedundantNonCapable}

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case SoftwareRedundant:
		return "software-redundant"
	case NonRedundantCapable:
		return "non-redundant-capable"
	case NonRedundantNonCapable:
		return "non-redundant-non-capable"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Deployment is one server deployment request from the short-term demand
// (paper §II-C): Racks racks, each allocated PowerPerRack, belonging to
// Workload. The deployment is placed as a unit under a single PDU-pair.
type Deployment struct {
	ID       int
	Workload string
	Category Category
	Racks    int
	// PowerPerRack is the conservative per-rack peak power allocation.
	PowerPerRack power.Watts
	// FlexPowerFraction is, for cap-able deployments, the lowest power cap
	// as a fraction of PowerPerRack (the paper uses 0.75–0.85). It is 0
	// for software-redundant deployments (they are shut down instead) and
	// 1 for non-cap-able deployments (no power is recoverable).
	FlexPowerFraction float64
}

// flaw is what Validate finds wrong with a deployment, before it is put
// into words: the online admission hot path asks the same question of every
// arrival and may not allocate an error to hear the answer.
type flaw uint8

const (
	noFlaw flaw = iota
	flawRacks
	flawRackPower
	flawFlexRange
	flawFlexOfCategory
	flawCategory
)

// flaw classifies d. Every range is written so that NaN falls outside it.
func (d Deployment) flaw() flaw {
	f := d.FlexPowerFraction
	switch {
	case d.Racks <= 0:
		return flawRacks
	case !(d.PowerPerRack > 0) || math.IsInf(float64(d.PowerPerRack), 1):
		return flawRackPower
	case !(f >= 0 && f <= 1):
		return flawFlexRange
	case d.Category == SoftwareRedundant && f > 0,
		d.Category == NonRedundantNonCapable && f < 1,
		d.Category == NonRedundantCapable && !(f > 0 && f < 1):
		return flawFlexOfCategory
	case d.Category < SoftwareRedundant || d.Category > NonRedundantNonCapable:
		return flawCategory
	}
	return noFlaw
}

// Valid reports whether Validate returns nil, without building the error.
func (d Deployment) Valid() bool { return d.flaw() == noFlaw }

// Validate checks internal consistency: at least one rack, a positive
// finite rack power, and the flex fraction its category prescribes (0 for
// software-redundant, 1 for non-cap-able, strictly between for cap-able).
func (d Deployment) Validate() error {
	switch d.flaw() {
	case flawRacks:
		return fmt.Errorf("workload: deployment %d has %d racks", d.ID, d.Racks)
	case flawRackPower:
		return fmt.Errorf("workload: deployment %d has rack power %v, want positive and finite", d.ID, d.PowerPerRack)
	case flawFlexRange:
		return fmt.Errorf("workload: deployment %d flex fraction %.2f outside [0,1]", d.ID, d.FlexPowerFraction)
	case flawFlexOfCategory:
		return fmt.Errorf("workload: %s deployment %d has flex fraction %.2f (0 if software-redundant, 1 if non-cap-able, strictly between if cap-able)",
			d.Category, d.ID, d.FlexPowerFraction)
	case flawCategory:
		return fmt.Errorf("workload: deployment %d has unknown category %d", d.ID, d.Category)
	}
	return nil
}

// TotalPower is the deployment's full power allocation (Pow_d in Eq. 2).
func (d Deployment) TotalPower() power.Watts {
	return d.PowerPerRack * power.Watts(d.Racks)
}

// FlexPowerPerRack is the per-rack power after capping.
func (d Deployment) FlexPowerPerRack() power.Watts {
	return power.Watts(float64(d.PowerPerRack) * d.FlexPowerFraction)
}

// CapPower is the deployment's power after worst-case corrective action
// (CapPow_d, paper Eq. 3): 0 for software-redundant (shut down), flex power
// for cap-able (throttled), full power for non-cap-able (untouched).
func (d Deployment) CapPower() power.Watts {
	switch d.Category {
	case SoftwareRedundant:
		return 0
	case NonRedundantCapable:
		return d.FlexPowerPerRack() * power.Watts(d.Racks)
	default:
		return d.TotalPower()
	}
}

// ShaveablePower is the maximum power Flex can recover from this
// deployment during failover: TotalPower − CapPower.
func (d Deployment) ShaveablePower() power.Watts {
	return d.TotalPower() - d.CapPower()
}

// ThrottleRecoverablePower is the power recoverable by throttling alone
// (i.e. excluding shutdowns) — used by the throttling-imbalance metric.
func (d Deployment) ThrottleRecoverablePower() power.Watts {
	if d.Category != NonRedundantCapable {
		return 0
	}
	return d.ShaveablePower()
}

// String renders a compact description.
func (d Deployment) String() string {
	return fmt.Sprintf("dep%d[%s %s %d×%v]", d.ID, d.Workload, d.Category, d.Racks, d.PowerPerRack)
}
