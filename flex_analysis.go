package flex

import (
	"flex/internal/cost"
	"flex/internal/feasibility"
)

// Analyses.
type (
	// FeasibilityParams configures the §III analysis.
	FeasibilityParams = feasibility.Params
	// FeasibilityAnalysis is its result.
	FeasibilityAnalysis = feasibility.Analysis
	// Savings is the §I construction-cost result.
	Savings = cost.Savings
	// DesignComparison contrasts redundancy designs.
	DesignComparison = cost.DesignComparison
)

// MaintenanceWindow is a low-utilization stretch suited to planned
// maintenance (§III).
type MaintenanceWindow = feasibility.MaintenanceWindow

// FindMaintenanceWindows scans an hourly utilization profile for windows
// where planned maintenance never engages Flex-Online.
func FindMaintenanceWindows(hourlyUtil []float64, minHours int, threshold float64) ([]MaintenanceWindow, error) {
	return feasibility.FindMaintenanceWindows(hourlyUtil, minHours, threshold)
}

// WeekProfile synthesizes the paper's weekday-peak/night-dip utilization
// profile for maintenance studies.
func WeekProfile(peak, nightDip float64) []float64 {
	return feasibility.WeekProfile(peak, nightDip)
}

// DefaultFeasibilityParams returns parameters calibrated to the paper's
// fleet statistics (1 h/yr unplanned, 40 h/yr planned, 65–80% peaks).
func DefaultFeasibilityParams() FeasibilityParams { return feasibility.DefaultParams() }

// AnalyzeFeasibility runs the §III joint-probability analysis.
func AnalyzeFeasibility(p FeasibilityParams) (FeasibilityAnalysis, error) {
	return feasibility.Analyze(p)
}

// ComputeSavings evaluates the §I zero-reserved-power economics.
func ComputeSavings(design Redundancy, sitePower Watts, dollarsPerWatt float64) (Savings, error) {
	return cost.Compute(design, sitePower, dollarsPerWatt)
}

// CompareDesigns evaluates reserved power and Flex gains across designs.
func CompareDesigns() []DesignComparison { return cost.CompareDesigns() }

// ChargeModel prices the §VI financial incentives for flexible workloads.
type ChargeModel = cost.ChargeModel

// DefaultChargeModel returns a conservative §VI pricing parameterization.
func DefaultChargeModel() ChargeModel { return cost.DefaultChargeModel() }

// MonteCarloParams / MonteCarloResult drive the stochastic §III check.
type (
	MonteCarloParams = feasibility.MonteCarloParams
	MonteCarloResult = feasibility.MonteCarloResult
)

// DefaultMonteCarloParams mirrors the paper's fleet statistics.
func DefaultMonteCarloParams() MonteCarloParams { return feasibility.DefaultMonteCarloParams() }

// SimulateYears runs the Monte Carlo counterpart of AnalyzeFeasibility.
func SimulateYears(p MonteCarloParams) (MonteCarloResult, error) {
	return feasibility.SimulateYears(p)
}
