// Package cooling models the §VI cooling story: like reserved power,
// redundant cooling capacity can be allocated to additional servers.
// Unlike a power failover — where batteries give ~10 seconds — losing a
// redundant cooling unit raises the room temperature *gradually*, leaving
// several minutes for mitigation. The preferred mitigation is migrating
// software-redundant workloads to another cooling domain (service healing
// in another AZ); strict Flex throttling/shutdown is the last resort.
package cooling

import (
	"fmt"
	"math"
	"sort"
	"time"

	"flex/internal/power"
	"flex/internal/workload"
)

// DomainID identifies a cooling domain (a set of racks sharing CRAH units
// and airflow containment).
type DomainID int

// Domain is one cooling domain: Units CRAH units of UnitCFM airflow each.
// A conventional design reserves RedundantUnits of them; a zero-reserved
// design sizes the IT load against all units and relies on mitigation.
type Domain struct {
	ID             DomainID
	Name           string
	Units          int
	UnitCFM        float64
	RedundantUnits int
}

// TotalCFM is the airflow with every unit running.
func (d Domain) TotalCFM() float64 { return float64(d.Units) * d.UnitCFM }

// CFMWithFailures is the airflow after failedUnits units are lost.
func (d Domain) CFMWithFailures(failedUnits int) float64 {
	remaining := d.Units - failedUnits
	if remaining < 0 {
		remaining = 0
	}
	return float64(remaining) * d.UnitCFM
}

// Rack is one rack from the cooling system's perspective.
type Rack struct {
	ID     string
	Domain DomainID
	// Power is the rack's heat load.
	Power power.Watts
	// CFMPerWatt is the airflow the rack requires per watt.
	CFMPerWatt float64
	// Category decides the available mitigations: software-redundant
	// racks migrate (scale out in another AZ), cap-able racks throttle,
	// non-cap-able racks can only be saved by others making room.
	Category workload.Category
	// FlexPower is the throttle floor for cap-able racks.
	FlexPower power.Watts
}

// CFM is the rack's airflow demand.
func (r Rack) CFM() float64 { return float64(r.Power) * r.CFMPerWatt }

// ThermalParams model a domain's temperature dynamics under an airflow
// deficit: the inlet temperature approaches
//
//	Ambient + DegCPerDeficit × deficitFraction
//
// with first-order time constant Tau — temperature rise is gradual
// (paper: "several minutes are available for mitigation").
type ThermalParams struct {
	AmbientC       float64
	CriticalC      float64
	DegCPerDeficit float64 // steady-state °C above ambient at 100% deficit
	Tau            time.Duration
}

// DefaultThermalParams is a representative air-cooled room: 25°C supply,
// 45°C critical inlet, 60°C asymptotic rise at total airflow loss, and a
// 5-minute thermal time constant.
//
//flex:keep EXPERIMENTS.md "§VI — cooling redundancy" is computed from it; BenchmarkSectionVI_CoolingRedundancy prints it
func DefaultThermalParams() ThermalParams {
	return ThermalParams{AmbientC: 25, CriticalC: 45, DegCPerDeficit: 60, Tau: 5 * time.Minute}
}

// TimeToCritical returns how long after the airflow drops the inlet
// temperature reaches critical, or a very large duration when the
// steady-state temperature never gets there (deficit small enough).
func (p ThermalParams) TimeToCritical(demandCFM, availableCFM float64) time.Duration {
	const never = 100 * 365 * 24 * time.Hour
	if demandCFM <= availableCFM || demandCFM <= 0 {
		return never
	}
	deficit := (demandCFM - availableCFM) / demandCFM // fraction of airflow missing
	steady := p.AmbientC + p.DegCPerDeficit*deficit
	if steady <= p.CriticalC {
		return never
	}
	// Solve Ambient + (steady−Ambient)(1−e^{−t/τ}) = Critical.
	frac := (p.CriticalC - p.AmbientC) / (steady - p.AmbientC)
	t := -float64(p.Tau) * math.Log(1-frac)
	return time.Duration(t)
}

// MitigationKind labels a planned step.
type MitigationKind int

// Mitigation kinds, in preference order (paper §VI: "other mitigations,
// such as workload migration to another cooling domain, can be used
// before enacting strict Flex capping/shutdown actions").
const (
	Migrate MitigationKind = iota
	Throttle
	Shutdown
)

// String implements fmt.Stringer.
func (k MitigationKind) String() string {
	switch k {
	case Migrate:
		return "migrate"
	case Throttle:
		return "throttle"
	case Shutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("MitigationKind(%d)", int(k))
	}
}

// Mitigation is one planned step.
type Mitigation struct {
	Rack string
	Kind MitigationKind
	// Target is the destination domain for Migrate.
	Target DomainID
	// CFMRecovered is the airflow demand removed from the failed domain.
	CFMRecovered float64
}

// SafeDeficitFraction is the largest airflow-deficit fraction whose
// steady-state temperature stays below critical — deficits below it need
// no mitigation at all.
func (p ThermalParams) SafeDeficitFraction() float64 {
	if p.DegCPerDeficit <= 0 {
		return 1
	}
	f := (p.CriticalC - p.AmbientC) / p.DegCPerDeficit
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// PlanResult is the outcome of PlanMitigation.
type PlanResult struct {
	Steps []Mitigation
	// Window is the time available before the domain goes critical (from
	// the moment of the failure, before any mitigation).
	Window time.Duration
	// Safe reports whether the post-mitigation steady-state temperature
	// stays below critical.
	Safe bool
	// ResidualDeficitCFM is the airflow recovery still missing for safety
	// (0 when Safe).
	ResidualDeficitCFM float64
}

// PlanMitigation plans the response to losing failedUnits cooling units in
// domain failed: first migrate software-redundant racks into other
// domains' spare airflow, then throttle cap-able racks (less power, less
// heat), and only then shut down remaining software-redundant racks.
//
//flex:keep EXPERIMENTS.md "§VI — cooling redundancy" is computed from it; BenchmarkSectionVI_CoolingRedundancy prints it
func PlanMitigation(domains []Domain, racks []Rack, failed DomainID, failedUnits int, params ThermalParams) (PlanResult, error) {
	var fd *Domain
	spare := map[DomainID]float64{}
	for i := range domains {
		d := domains[i]
		demand := 0.0
		for _, r := range racks {
			if r.Domain == d.ID {
				demand += r.CFM()
			}
		}
		if d.ID == failed {
			fd = &domains[i]
			continue
		}
		spare[d.ID] = d.TotalCFM() - demand
	}
	if fd == nil {
		return PlanResult{}, fmt.Errorf("cooling: unknown domain %d", failed)
	}
	demand := 0.0
	for _, r := range racks {
		if r.Domain == failed {
			demand += r.CFM()
		}
	}
	available := fd.CFMWithFailures(failedUnits)
	res := PlanResult{Window: params.TimeToCritical(demand, available)}
	// Mitigation only needs to bring the demand down to the level whose
	// steady-state temperature is sub-critical — the room tolerates a
	// bounded airflow deficit indefinitely.
	fSafe := params.SafeDeficitFraction()
	safeDemand := math.Inf(1)
	if fSafe < 1 {
		safeDemand = available / (1 - fSafe)
	}
	// cfmEps absorbs floating-point noise in the CFM arithmetic.
	const cfmEps = 1e-3
	needed := demand - safeDemand
	if needed <= cfmEps {
		res.Safe = true
		return res, nil
	}

	// Candidates in the failed domain, largest airflow first within each
	// preference tier.
	var srRacks, capRacks []Rack
	for _, r := range racks {
		if r.Domain != failed {
			continue
		}
		switch r.Category {
		case workload.SoftwareRedundant:
			srRacks = append(srRacks, r)
		case workload.NonRedundantCapable:
			capRacks = append(capRacks, r)
		}
	}
	byCFM := func(rs []Rack) {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].CFM() != rs[j].CFM() {
				return rs[i].CFM() > rs[j].CFM()
			}
			return rs[i].ID < rs[j].ID
		})
	}
	byCFM(srRacks)
	byCFM(capRacks)

	deficit := needed
	// Tier 1: migrate SR racks into spare airflow elsewhere.
	domIDs := make([]DomainID, 0, len(spare))
	for id := range spare {
		domIDs = append(domIDs, id)
	}
	sort.Slice(domIDs, func(i, j int) bool { return spare[domIDs[i]] > spare[domIDs[j]] })
	migrated := map[string]bool{}
	for _, r := range srRacks {
		if deficit <= cfmEps {
			break
		}
		for _, id := range domIDs {
			if spare[id] >= r.CFM() {
				spare[id] -= r.CFM()
				deficit -= r.CFM()
				migrated[r.ID] = true
				res.Steps = append(res.Steps, Mitigation{
					Rack: r.ID, Kind: Migrate, Target: id, CFMRecovered: r.CFM(),
				})
				sort.Slice(domIDs, func(i, j int) bool { return spare[domIDs[i]] > spare[domIDs[j]] })
				break
			}
		}
	}
	// Tier 2: throttle cap-able racks (airflow demand scales with power).
	for _, r := range capRacks {
		if deficit <= cfmEps {
			break
		}
		rec := float64(r.Power-r.FlexPower) * r.CFMPerWatt
		if rec <= 0 {
			continue
		}
		deficit -= rec
		res.Steps = append(res.Steps, Mitigation{Rack: r.ID, Kind: Throttle, CFMRecovered: rec})
	}
	// Tier 3: shut down the SR racks that could not migrate.
	for _, r := range srRacks {
		if deficit <= cfmEps {
			break
		}
		if migrated[r.ID] {
			continue
		}
		deficit -= r.CFM()
		res.Steps = append(res.Steps, Mitigation{Rack: r.ID, Kind: Shutdown, CFMRecovered: r.CFM()})
	}
	if deficit > cfmEps {
		res.ResidualDeficitCFM = deficit
	} else {
		res.Safe = true
	}
	return res, nil
}
