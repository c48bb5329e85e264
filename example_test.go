package flex_test

import (
	"context"
	"fmt"

	"flex"
)

// ExampleRedundancy shows the reserved-power arithmetic of the paper's
// 4N/3 distributed-redundant design.
func ExampleRedundancy() {
	design := flex.Redundancy{X: 4, Y: 3}
	fmt.Printf("%v reserves %.0f%% of provisioned power\n", design, design.ReservedFraction()*100)
	fmt.Printf("zero-reserve operation deploys %.0f%% more servers\n", design.ExtraServersFraction()*100)
	fmt.Printf("worst failover load on a survivor: %.0f%% of rating\n", design.WorstCaseFailoverFraction()*100)
	// Output:
	// 4N/3 reserves 25% of provisioned power
	// zero-reserve operation deploys 33% more servers
	// worst failover load on a survivor: 133% of rating
}

// ExampleFlexOffline places a demand trace into the paper's 9.6MW room
// and verifies the Eq. 4 safety guarantee.
func ExampleFlexOffline() {
	room := flex.PaperRoom()
	trace, _ := flex.GenerateTrace(flex.DefaultTraceConfig(room.Topo.ProvisionedPower()), 42)
	policy := flex.FlexOfflineShort()
	policy.MaxNodes = 150 // keep the example fast
	pl, _ := policy.Place(context.Background(), room, trace)
	fmt.Println("placement safe:", pl.Validate() == nil)
	fmt.Println("stranded below 10%:", pl.StrandedFraction() < 0.10)
	// Output:
	// placement safe: true
	// stranded below 10%: true
}

// ExamplePlanActionsContext runs Algorithm 1 for a failover snapshot.
func ExamplePlanActionsContext() {
	room := flex.PaperRoom()
	trace, _ := flex.GenerateTrace(flex.DefaultTraceConfig(room.Topo.ProvisionedPower()), 42)
	policy := flex.FlexOfflineShort()
	policy.MaxNodes = 150
	pl, _ := policy.Place(context.Background(), room, trace)

	ups := make([]flex.Watts, 4)
	for u := range ups {
		ups[u] = flex.Watts(0.85 * 4.0 / 3.0 * 2.4e6) // survivors at 113%
	}
	ups[0] = 0 // failed supply
	actions, insufficient, _ := flex.PlanActionsContext(context.Background(), flex.PlanInput{
		Topo:     room.Topo,
		Racks:    flex.ManagedRacks(flex.ExpandRacks(pl)),
		UPSPower: ups,
		Inactive: map[flex.UPSID]bool{0: true},
		Scenario: flex.ScenarioRealistic1(),
	})
	fmt.Println("sufficient:", !insufficient)
	fmt.Println("actions chosen:", len(actions) > 0)
	// Output:
	// sufficient: true
	// actions chosen: true
}

// ExampleComputeSavings reproduces the paper's headline economics.
func ExampleComputeSavings() {
	s, _ := flex.ComputeSavings(flex.Redundancy{X: 4, Y: 3}, 128*flex.MW, 5)
	fmt.Printf("a 128MW site at $5/W saves ≈$%.0fM\n", s.Dollars/1e6)
	// Output:
	// a 128MW site at $5/W saves ≈$213M
}

// ExampleFindMaintenanceWindows schedules planned maintenance into the
// paper's night/weekend utilization dips.
func ExampleFindMaintenanceWindows() {
	profile := flex.WeekProfile(0.80, 0.17) // weekday peak 80%, dips −17%
	windows, _ := flex.FindMaintenanceWindows(profile, 6, 0.75)
	fmt.Println("windows found:", len(windows) > 0)
	fmt.Println("first window long enough for a UPS service:", windows[0].Hours >= 6)
	// Output:
	// windows found: true
	// first window long enough for a UPS service: true
}
