// Package cost implements the paper's §I construction-cost analysis:
// allocating the reserved power of an xN/y datacenter to additional
// servers avoids building that capacity elsewhere, saving the
// per-provisioned-watt construction cost.
package cost

import (
	"fmt"

	"flex/internal/power"
)

// Savings summarizes the Flex economics for one site.
type Savings struct {
	// ExtraServerFraction is the relative increase in deployable servers
	// (x/y − 1; 33% for 4N/3, the paper's headline).
	ExtraServerFraction float64
	// ExtraPower is the additional IT capacity unlocked.
	ExtraPower power.Watts
	// Dollars is the avoided construction cost.
	Dollars float64
}

// Compute returns the savings of running sitePower of IT capacity as
// zero-reserved-power under the given design at the given construction
// cost. The paper's reference points: a 128MW site saves $211M at $5/W
// and $422M at $10/W (using the rounded 33% figure for 4N/3).
func Compute(design power.Redundancy, sitePower power.Watts, dollarsPerWatt float64) (Savings, error) {
	if err := design.Validate(); err != nil {
		return Savings{}, err
	}
	if sitePower <= 0 {
		return Savings{}, fmt.Errorf("cost: site power must be positive")
	}
	if dollarsPerWatt <= 0 {
		return Savings{}, fmt.Errorf("cost: dollars per watt must be positive")
	}
	frac := design.ExtraServersFraction()
	extra := power.Watts(frac * float64(sitePower))
	return Savings{
		ExtraServerFraction: frac,
		ExtraPower:          extra,
		Dollars:             float64(extra) * dollarsPerWatt,
	}, nil
}

// DesignComparison contrasts redundancy designs on reserved power and
// Flex gains — the §II-A discussion of why distributed redundancy is key.
type DesignComparison struct {
	Name                string
	ReservedFraction    float64
	ExtraServerFraction float64
	// WorstFailoverLoad is the worst-case post-failover load on a
	// surviving supply as a fraction of its rating under zero reserve.
	WorstFailoverLoad float64
}

// CompareDesigns evaluates the standard designs the paper discusses. N+1
// and 2N are included for the reserved-power accounting even though their
// wiring cannot support Flex (§II-A: "N+1 cannot accommodate Flex because
// the redundant supply is not active; 2N is not ideal because a failure
// would require one supply to take twice its normal load").
func CompareDesigns() []DesignComparison {
	entries := []struct {
		name   string
		design power.Redundancy
	}{
		{"2N", power.Redundancy{X: 2, Y: 1}},
		{"3N/2", power.Redundancy{X: 3, Y: 2}},
		{"4N/3 (paper)", power.Redundancy{X: 4, Y: 3}},
		{"5N/4", power.Redundancy{X: 5, Y: 4}},
		{"6N/5", power.Redundancy{X: 6, Y: 5}},
	}
	out := make([]DesignComparison, len(entries))
	for i, e := range entries {
		out[i] = DesignComparison{
			Name:                e.name,
			ReservedFraction:    e.design.ReservedFraction(),
			ExtraServerFraction: e.design.ExtraServersFraction(),
			WorstFailoverLoad:   e.design.WorstCaseFailoverFraction(),
		}
	}
	return out
}
