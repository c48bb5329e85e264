package impact

import "flex/internal/workload"

// Scenario assigns an impact function to each workload category — the
// simplified form used in the paper's Figure 11/12 evaluation ("all
// software-redundant workloads have the same needs, and all non-redundant
// cap-able workloads have the same needs as well"). Per-workload overrides
// refine the per-category defaults.
type Scenario struct {
	Name       string
	ByCategory map[workload.Category]Function
	// ByWorkload overrides ByCategory for specific named workloads.
	ByWorkload map[string]Function
}

// For returns the impact function for a workload with the given name and
// category. A missing entry yields the zero function for software-redundant
// workloads and a conservative default ordering otherwise (see Default).
func (s Scenario) For(name string, cat workload.Category) Function {
	if f, ok := s.ByWorkload[name]; ok {
		return f
	}
	if f, ok := s.ByCategory[cat]; ok {
		return f
	}
	return Function{}
}

// The four Figure 11 scenarios. Shapes follow the paper's description:
//
//   - Extreme-1: shutting down software-redundant racks is free, while
//     throttling cap-able racks is maximally costly → the controller shuts
//     down aggressively and throttles as little as possible.
//   - Extreme-2: the mirror image — throttling is free, shutdown costly →
//     the controller throttles all candidates before any shutdown.
//   - Realistic-1: both actions have incremental cost, with shutdown
//     cheaper than throttling (more shutdowns, fewer throttles).
//   - Realistic-2: both incremental, with throttling cheaper than shutdown.

// Extreme1 returns the Figure 11(a) scenario.
func Extreme1() Scenario {
	return Scenario{
		Name: "Extreme-1",
		ByCategory: map[workload.Category]Function{
			workload.SoftwareRedundant:   Zero(),
			workload.NonRedundantCapable: MustNew("ext1-cap", []Point{{0, 0.9}, {1, 1}}),
		},
	}
}

// Extreme2 returns the Figure 11(b) scenario.
func Extreme2() Scenario {
	return Scenario{
		Name: "Extreme-2",
		ByCategory: map[workload.Category]Function{
			workload.SoftwareRedundant:   MustNew("ext2-sr", []Point{{0, 0.9}, {1, 1}}),
			workload.NonRedundantCapable: Zero(),
		},
	}
}

// Realistic1 returns the Figure 11(c) scenario — the one used in the
// paper's end-to-end emulation (§V-C).
func Realistic1() Scenario {
	return Scenario{
		Name: "Realistic-1",
		ByCategory: map[workload.Category]Function{
			// Shutting down is cheap for the first quarter of the racks
			// (replicas absorb it), then cost ramps; critical management
			// racks at the tail are protected.
			workload.SoftwareRedundant: MustNew("real1-sr", []Point{
				{0, 0}, {0.55, 0.05}, {0.82, 0.55}, {0.9, 1}, {1, 1},
			}),
			// Throttling has a small fixed perceived cost and grows
			// slowly — so once shutdowns stop being free, Flex-Online
			// interleaves broad throttling with further shutdowns.
			workload.NonRedundantCapable: MustNew("real1-cap", []Point{
				{0, 0.05}, {0.9, 0.26}, {0.95, 1}, {1, 1},
			}),
		},
	}
}

// Realistic2 returns the Figure 11(d) scenario: throttling is perceived as
// cheaper than shutdown.
func Realistic2() Scenario {
	return Scenario{
		Name: "Realistic-2",
		ByCategory: map[workload.Category]Function{
			workload.SoftwareRedundant: MustNew("real2-sr", []Point{
				{0, 0.08}, {0.85, 0.4}, {0.9, 1}, {1, 1},
			}),
			workload.NonRedundantCapable: MustNew("real2-cap", []Point{
				{0, 0}, {0.5, 0.05}, {0.9, 0.3}, {0.95, 1}, {1, 1},
			}),
		},
	}
}

// Default returns the paper's default behaviour in the absence of impact
// functions: throttle all cap-able workloads before shutting down any
// software-redundant ones (§III, §IV-D).
func Default() Scenario {
	return Scenario{
		Name: "Default",
		ByCategory: map[workload.Category]Function{
			workload.SoftwareRedundant:   MustNew("default-sr", []Point{{0, 0.5}, {1, 0.9}}),
			workload.NonRedundantCapable: MustNew("default-cap", []Point{{0, 0}, {1, 0.45}}),
		},
	}
}

// Figure11Scenarios returns the four scenarios in presentation order.
func Figure11Scenarios() []Scenario {
	return []Scenario{Extreme1(), Extreme2(), Realistic1(), Realistic2()}
}
