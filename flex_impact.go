package flex

import (
	"flex/internal/impact"
)

// Scenario assigns impact functions to workloads/categories.
type Scenario = impact.Scenario

// ScenarioRealistic1 returns Figure 11's Realistic-1 scenario, the one
// the emulation defaults to.
func ScenarioRealistic1() Scenario { return impact.Realistic1() }

// Figure11Scenarios returns all four evaluation scenarios.
func Figure11Scenarios() []Scenario { return impact.Figure11Scenarios() }
