package feasibility

import (
	"fmt"
	"math/rand"

	"flex/internal/power"
	"flex/internal/stats"
)

// MonteCarloParams configures SimulateYears, the stochastic counterpart of
// the §III analytic model: years of room operation at hour granularity
// with a weekly utilization profile, Poisson unplanned supply failures,
// and planned maintenance scheduled into low-utilization windows.
type MonteCarloParams struct {
	Years int
	Seed  int64
	// Design is the redundancy pattern.
	Design power.Redundancy
	// Profile is the hourly utilization profile (wrapping; typically one
	// week = 168 entries).
	Profile []float64
	// UtilNoiseStd adds Gaussian noise per hour.
	UtilNoiseStd float64
	// UnplannedEventsPerYear is the Poisson rate of unplanned supply
	// failures (the paper's fleet: ~1 hour/year of unplanned downtime).
	UnplannedEventsPerYear float64
	// UnplannedEventHours is each unplanned event's duration.
	UnplannedEventHours int
	// PlannedHoursPerYear is the planned maintenance budget (paper: 40
	// h/yr), scheduled greedily into the quietest windows when
	// SchedulePlanned is true and uniformly at random otherwise.
	PlannedHoursPerYear int
	SchedulePlanned     bool
	// CapableShare/ThrottleDepth/SRShare describe the workload mix (as in
	// Params).
	CapableShare, ThrottleDepth, SRShare float64
}

// DefaultMonteCarloParams mirrors DefaultParams for the simulation.
func DefaultMonteCarloParams() MonteCarloParams {
	return MonteCarloParams{
		Years:                  200,
		Seed:                   1,
		Design:                 power.Redundancy{X: 4, Y: 3},
		Profile:                WeekProfile(0.80, 0.17),
		UtilNoiseStd:           0.05,
		UnplannedEventsPerYear: 1,
		UnplannedEventHours:    1,
		PlannedHoursPerYear:    40,
		SchedulePlanned:        true,
		CapableShare:           0.56,
		ThrottleDepth:          0.20,
		SRShare:                0.13,
	}
}

// MonteCarloResult aggregates the simulated years.
type MonteCarloResult struct {
	Hours int
	// MaintenanceHours is hours with a supply out of service.
	MaintenanceHours int
	// ActionHours is hours where corrective actions were required
	// (maintenance coinciding with utilization above the failover budget).
	ActionHours int
	// ThrottleOnlyHours / SRShutdownHours split ActionHours by whether
	// throttling alone sufficed.
	ThrottleOnlyHours int
	SRShutdownHours   int
	// NoActionAvailability is 1 − ActionHours/Hours, in nines too.
	NoActionAvailability float64
	NoActionNines        float64
	// SRAvailability is the software-redundant server availability
	// (weighted by the average fraction of SR racks shut during shutdown
	// hours).
	SRAvailability float64
	SRNines        float64
	// MeanSRFractionShut is the average SR fraction shut during shutdown
	// hours.
	MeanSRFractionShut float64
}

// SimulateYears runs the Monte Carlo model. It is the empirical check on
// Analyze: over enough simulated years the two must agree on the paper's
// headline claims (≥4 nines of action-free operation, SR availability ≥4
// nines).
func SimulateYears(p MonteCarloParams) (MonteCarloResult, error) {
	if p.Years <= 0 {
		return MonteCarloResult{}, fmt.Errorf("feasibility: years must be positive")
	}
	if len(p.Profile) == 0 {
		return MonteCarloResult{}, fmt.Errorf("feasibility: empty profile")
	}
	if err := p.Design.Validate(); err != nil {
		return MonteCarloResult{}, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	const hoursPerYearInt = 8760
	totalHours := p.Years * hoursPerYearInt
	budget := p.Design.AllocationLimitFraction()

	// Pre-compute the planned-maintenance schedule as hour-of-week slots.
	plannedSlot := make([]bool, len(p.Profile))
	if p.PlannedHoursPerYear > 0 {
		if p.SchedulePlanned {
			windows, err := FindMaintenanceWindows(p.Profile, 1, budget)
			if err == nil {
				// Mark quiet hours round-robin until the weekly share of the
				// planned budget is covered.
				weekly := p.PlannedHoursPerYear * len(p.Profile) / hoursPerYearInt
				if weekly < 1 {
					weekly = 1
				}
				marked := 0
				for _, w := range windows {
					for h := 0; h < w.Hours && marked < weekly; h++ {
						plannedSlot[(w.StartHour+h)%len(p.Profile)] = true
						marked++
					}
					if marked >= weekly {
						break
					}
				}
			}
		}
	}

	res := MonteCarloResult{Hours: totalHours}
	var srFractions []float64
	unplannedLeft := 0 // remaining hours of the current unplanned event
	hourlyRate := p.UnplannedEventsPerYear / hoursPerYearInt
	plannedUsedThisYear := 0

	for h := 0; h < totalHours; h++ {
		if h%hoursPerYearInt == 0 {
			plannedUsedThisYear = 0
		}
		week := h % len(p.Profile)
		util := p.Profile[week] + rng.NormFloat64()*p.UtilNoiseStd
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		// Unplanned events arrive Poisson-ly; model as Bernoulli per hour.
		if unplannedLeft == 0 && rng.Float64() < hourlyRate {
			unplannedLeft = p.UnplannedEventHours
		}
		maintenance := false
		if unplannedLeft > 0 {
			unplannedLeft--
			maintenance = true
		}
		// Planned maintenance in its scheduled (or random) slots.
		if plannedUsedThisYear < p.PlannedHoursPerYear {
			scheduled := plannedSlot[week]
			if !p.SchedulePlanned {
				scheduled = rng.Float64() < float64(p.PlannedHoursPerYear)/hoursPerYearInt
			}
			if scheduled {
				maintenance = true
				plannedUsedThisYear++
			}
		}
		if !maintenance {
			continue
		}
		res.MaintenanceHours++
		if util <= budget {
			continue
		}
		res.ActionHours++
		need := util - budget
		throttleCap := p.CapableShare * p.ThrottleDepth * util
		if need <= throttleCap {
			res.ThrottleOnlyHours++
			continue
		}
		res.SRShutdownHours++
		srPool := p.SRShare * util
		frac := 1.0
		if srPool > 0 {
			frac = (need - throttleCap) / srPool
			if frac > 1 {
				frac = 1
			}
		}
		srFractions = append(srFractions, frac)
	}

	res.NoActionAvailability = 1 - float64(res.ActionHours)/float64(res.Hours)
	res.NoActionNines = stats.Nines(res.NoActionAvailability)
	res.MeanSRFractionShut = stats.Mean(srFractions)
	srDowntime := float64(res.SRShutdownHours) * res.MeanSRFractionShut
	res.SRAvailability = 1 - srDowntime/float64(res.Hours)
	res.SRNines = stats.Nines(res.SRAvailability)
	return res, nil
}
