// Package feasibility implements the paper's §III analysis: the joint
// probability that a maintenance event coincides with power utilization
// high enough to require Flex corrective actions, and the resulting
// availability for each workload category.
//
// The analysis models (a) the distribution of planned and unplanned power
// device downtime (the paper's fleet data: ~1 hour/year unplanned, ~40
// hours/year planned, with planned maintenance schedulable into low-
// utilization windows) and (b) the distribution of room power utilization
// (peaks of 65–80% of non-reserve provisioned power, i.e. the same
// fractions of total provisioned power once Flex deploys proportionally
// more servers).
package feasibility

import (
	"fmt"
	"math"
	"time"

	"flex/internal/power"
	"flex/internal/stats"
)

// UtilizationModel gives the probability that room utilization (fraction
// of provisioned power) exceeds a threshold at a random instant.
type UtilizationModel interface {
	ProbAbove(threshold float64) float64
}

// NormalUtilization models utilization as a Gaussian (clipped to [0,1]).
type NormalUtilization struct {
	Mean, Std float64
}

// ProbAbove implements UtilizationModel.
func (n NormalUtilization) ProbAbove(x float64) float64 {
	if n.Std <= 0 {
		if n.Mean > x {
			return 1
		}
		return 0
	}
	z := (x - n.Mean) / n.Std
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// Params configures Analyze.
type Params struct {
	// Design is the redundancy pattern (4N/3 in the paper).
	Design power.Redundancy
	// UnplannedDowntimePerYear is the expected unplanned loss of one
	// power supply (paper fleet data: 1 hour/year).
	UnplannedDowntimePerYear time.Duration
	// PlannedDowntimePerYear is planned maintenance taking out a supply
	// (paper: 40 hours/year).
	PlannedDowntimePerYear time.Duration
	// PlannedSchedulable marks planned maintenance as schedulable into
	// low-utilization windows (nights/weekends run 15–19% below weekday
	// peaks for 6–12 hours, §III), in which case it never coincides with
	// utilization above the failover budget.
	PlannedSchedulable bool
	// Utilization models room utilization at failure times.
	Utilization UtilizationModel
	// CapableShare is the fraction of room power in non-redundant
	// cap-able workloads (paper average: 56%).
	CapableShare float64
	// SoftwareRedundantShare is the software-redundant power fraction
	// (paper average: 13%).
	SoftwareRedundantShare float64
	// ThrottleDepth is the average fraction of cap-able power recoverable
	// by throttling (1 − flex power fraction; paper: 15–25%, ~20%).
	ThrottleDepth float64
}

// DefaultParams returns parameters calibrated to the paper's published
// fleet statistics.
func DefaultParams() Params {
	return Params{
		Design:                   power.Redundancy{X: 4, Y: 3},
		UnplannedDowntimePerYear: time.Hour,
		PlannedDowntimePerYear:   40 * time.Hour,
		PlannedSchedulable:       true,
		// Utilization at unplanned-failure instants: high-side of the
		// 65–80% peak band (failures are independent of load, but the
		// analysis is run against the riskier busy-hours distribution).
		Utilization:            NormalUtilization{Mean: 0.83, Std: 0.075},
		CapableShare:           0.56,
		SoftwareRedundantShare: 0.13,
		ThrottleDepth:          0.20,
	}
}

// Analysis is the result of Analyze.
type Analysis struct {
	// ActionThreshold is the utilization above which a supply failure
	// requires corrective actions: the failover budget y/x.
	ActionThreshold float64
	// ShutdownThreshold is the utilization above which throttling alone
	// cannot recover enough power and software-redundant racks must be
	// shut down.
	ShutdownThreshold float64
	// ProbActionNeeded is the probability, at a random instant, that a
	// maintenance event is in progress AND utilization requires actions.
	ProbActionNeeded float64
	// NoActionAvailability = 1 − ProbActionNeeded (paper: ≥ 99.99%).
	NoActionAvailability float64
	// NoActionNines is NoActionAvailability expressed in nines.
	NoActionNines float64
	// ProbSRShutdown is the probability that a software-redundant server
	// must be shut down (paper: ≈ 0.005%).
	ProbSRShutdown float64
	// SRAvailability bounds software-redundant server availability
	// (paper: at least 4 nines).
	SRAvailability float64
	SRNines        float64
	// NonRedundantNines is the design availability for non-redundant
	// servers — corrective actions at most throttle them, so the
	// datacenter's design availability (5 nines) is preserved.
	NonRedundantNines float64
}

const hoursPerYear = 8760.0

// Analyze runs the §III analysis.
func Analyze(p Params) (Analysis, error) {
	if err := p.Design.Validate(); err != nil {
		return Analysis{}, err
	}
	if p.Utilization == nil {
		return Analysis{}, fmt.Errorf("feasibility: utilization model required")
	}
	if p.CapableShare < 0 || p.SoftwareRedundantShare < 0 ||
		p.CapableShare+p.SoftwareRedundantShare > 1 {
		return Analysis{}, fmt.Errorf("feasibility: invalid workload shares")
	}
	if p.ThrottleDepth <= 0 || p.ThrottleDepth >= 1 {
		return Analysis{}, fmt.Errorf("feasibility: throttle depth %v outside (0,1)", p.ThrottleDepth)
	}

	a := Analysis{}
	a.ActionThreshold = p.Design.AllocationLimitFraction()
	// Actions must shave utilization u down to y/x. Throttling recovers
	// CapableShare × ThrottleDepth × u; shutdown is needed when
	// u − y/x > CapableShare × ThrottleDepth × u.
	a.ShutdownThreshold = a.ActionThreshold / (1 - p.CapableShare*p.ThrottleDepth)

	maintFrac := p.UnplannedDowntimePerYear.Hours() / hoursPerYear
	if !p.PlannedSchedulable {
		maintFrac += p.PlannedDowntimePerYear.Hours() / hoursPerYear
	}
	a.ProbActionNeeded = maintFrac * p.Utilization.ProbAbove(a.ActionThreshold)
	a.NoActionAvailability = 1 - a.ProbActionNeeded
	a.NoActionNines = stats.Nines(a.NoActionAvailability)

	a.ProbSRShutdown = maintFrac * p.Utilization.ProbAbove(a.ShutdownThreshold)
	a.SRAvailability = 1 - a.ProbSRShutdown
	a.SRNines = stats.Nines(a.SRAvailability)
	a.NonRedundantNines = 5 // datacenter design availability; at most throttled
	return a, nil
}
