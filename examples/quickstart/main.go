// Quickstart: build a zero-reserved-power room, place a demand trace with
// Flex-Offline, and watch Flex-Online's Algorithm 1 pick corrective
// actions for a UPS failure at high utilization.
package main

import (
	"context"
	"fmt"
	"log"

	"flex"
)

func main() {
	// The paper's 9.6MW 4N/3 room. Flex allocates all of it; a
	// conventional design stops at what survives a UPS loss.
	room := flex.PaperRoom()
	fmt.Printf("room: %v provisioned, conventional limit %v\n",
		room.Topo.ProvisionedPower(), room.Topo.ConventionalAllocatablePower())

	// 115% of provisioned power in deployment requests, paper's mix.
	trace, err := flex.GenerateTrace(flex.DefaultTraceConfig(room.Topo.ProvisionedPower()), 42)
	if err != nil {
		log.Fatal(err)
	}

	// Flex-Offline: safe for any UPS failure even at 100% utilization.
	// The ctx bounds the ILP solves; pass a deadline to budget placement.
	pl, err := flex.FlexOfflineShort().Place(context.Background(), room, trace)
	if err != nil {
		log.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		log.Fatal(err) // never: Flex-Offline placements are safe by construction
	}
	fmt.Printf("stranded power: %.1f%%\n", pl.StrandedFraction()*100)

	// Flex-Online: plan corrective actions for a failover snapshot — UPS 0
	// out, its load on the three survivors (≈113% of their rating).
	racks := flex.ExpandRacks(pl)
	ups := []flex.Watts{0, 2.72 * flex.MW, 2.72 * flex.MW, 2.72 * flex.MW}
	actions, insufficient, err := flex.PlanActionsContext(context.Background(), flex.PlanInput{
		Topo:     room.Topo,
		Racks:    flex.ManagedRacks(racks),
		UPSPower: ups,
		Inactive: map[flex.UPSID]bool{0: true},
		Scenario: flex.ScenarioRealistic1(),
	})
	if err != nil {
		log.Fatal(err)
	}
	shut := 0
	for _, a := range actions {
		if a.Kind == flex.ActionShutdown {
			shut++
		}
	}
	fmt.Printf("corrective actions: %d (%d shutdowns, %d throttles), sufficient: %v\n",
		len(actions), shut, len(actions)-shut, !insufficient)
}
