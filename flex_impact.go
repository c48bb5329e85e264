package flex

import (
	"flex/internal/impact"
)

// Scenario assigns impact functions to workloads/categories.
type Scenario = impact.Scenario

// The Figure 11 scenario library.
func ScenarioExtreme1() Scenario   { return impact.Extreme1() }
func ScenarioExtreme2() Scenario   { return impact.Extreme2() }
func ScenarioRealistic1() Scenario { return impact.Realistic1() }
func ScenarioRealistic2() Scenario { return impact.Realistic2() }

// Figure11Scenarios returns all four evaluation scenarios.
func Figure11Scenarios() []Scenario { return impact.Figure11Scenarios() }
