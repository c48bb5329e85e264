package controller

import (
	"context"
	"fmt"
	"testing"

	"flex/internal/impact"
	"flex/internal/power"
	"flex/internal/workload"
)

// testRoom builds a small 4N/3 room: 4 × 100kW UPSes, 6 PDU-pairs.
func testRoom(t *testing.T) *power.Topology {
	t.Helper()
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         100 * power.KW,
		PairsPerCombination: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// testRacks places one rack of each category on every pair: SR 10kW,
// capable 10kW (flex 8kW), non-capable 10kW.
func testRacks(topo *power.Topology) []ManagedRack {
	var racks []ManagedRack
	for _, p := range topo.Pairs {
		racks = append(racks,
			ManagedRack{ID: fmt.Sprintf("sr-%d", p.ID), Workload: "websearch",
				Category: workload.SoftwareRedundant, Pair: p.ID,
				Allocated: 10 * power.KW, FlexPower: 0},
			ManagedRack{ID: fmt.Sprintf("cap-%d", p.ID), Workload: "vmservice",
				Category: workload.NonRedundantCapable, Pair: p.ID,
				Allocated: 10 * power.KW, FlexPower: 8 * power.KW},
			ManagedRack{ID: fmt.Sprintf("nc-%d", p.ID), Workload: "gpucluster",
				Category: workload.NonRedundantNonCapable, Pair: p.ID,
				Allocated: 10 * power.KW, FlexPower: 10 * power.KW},
		)
	}
	return racks
}

// rackPowers returns a full-draw snapshot.
func rackPowers(racks []ManagedRack) map[string]power.Watts {
	m := make(map[string]power.Watts, len(racks))
	for _, r := range racks {
		m[r.ID] = r.Allocated
	}
	return m
}

func TestPlanNoOverdrawNoActions(t *testing.T) {
	topo := testRoom(t)
	actions, insufficient, err := PlanContext(context.Background(), PlanInput{
		Topo:     topo,
		Racks:    testRacks(topo),
		UPSPower: []power.Watts{50 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW},
		Scenario: impact.Default(),
	})
	if err != nil || insufficient {
		t.Fatalf("err=%v insufficient=%v", err, insufficient)
	}
	if len(actions) != 0 {
		t.Fatalf("actions = %v, want none", actions)
	}
}

func TestPlanBringsEstimateBelowLimit(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	// UPS 0 failed: its load transferred; survivors at 120kW (over 100kW).
	ups := []power.Watts{0, 120 * power.KW, 120 * power.KW, 120 * power.KW}
	inactive := map[power.UPSID]bool{0: true}
	actions, insufficient, err := PlanContext(context.Background(), PlanInput{
		Topo:      topo,
		Racks:     racks,
		UPSPower:  ups,
		RackPower: rackPowers(racks),
		Inactive:  inactive,
		Scenario:  impact.Default(),
		Buffer:    power.KW,
	})
	if err != nil {
		t.Fatal(err)
	}
	if insufficient {
		t.Fatal("plan reported insufficient despite ample shaveable power")
	}
	if len(actions) == 0 {
		t.Fatal("no actions for a 20% overdraw")
	}
	// Replay the estimate update and verify all active UPSes end below
	// limit − buffer.
	est := append([]power.Watts(nil), ups...)
	for _, a := range actions {
		var pair power.PDUPairID
		for _, r := range racks {
			if r.ID == a.Rack {
				pair = r.Pair
			}
		}
		applyRecovery(topo, est, inactive, pair, a.Recovered)
	}
	for u := 1; u < 4; u++ {
		if est[u] > 100*power.KW-power.KW {
			t.Fatalf("UPS %d estimate %v still above limit", u, est[u])
		}
	}
}

func TestPlanDefaultThrottlesBeforeShutdown(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	ups := []power.Watts{0, 110 * power.KW, 110 * power.KW, 110 * power.KW}
	actions, _, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups,
		RackPower: rackPowers(racks),
		Inactive:  map[power.UPSID]bool{0: true},
		Scenario:  impact.Default(),
		Buffer:    power.KW,
	})
	if err != nil {
		t.Fatal(err)
	}
	seenShutdown := false
	for _, a := range actions {
		if a.Kind == Shutdown {
			seenShutdown = true
		}
		if a.Kind == Throttle && seenShutdown {
			t.Fatalf("throttle after shutdown under Default scenario: %v", actions)
		}
	}
}

func TestPlanExtreme1ShutsDownFirst(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	ups := []power.Watts{0, 110 * power.KW, 110 * power.KW, 110 * power.KW}
	actions, _, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups,
		RackPower: rackPowers(racks),
		Inactive:  map[power.UPSID]bool{0: true},
		Scenario:  impact.Extreme1(),
		Buffer:    power.KW,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Fatal("no actions")
	}
	for _, a := range actions {
		if a.Kind != Shutdown {
			t.Fatalf("Extreme-1 should only shut down (SR capacity permitting): %v", actions)
		}
	}
}

func TestPlanExtreme2ThrottlesAllBeforeShutdown(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	// Big overdraw so that throttling alone cannot cover it.
	ups := []power.Watts{0, 133 * power.KW, 133 * power.KW, 133 * power.KW}
	actions, _, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups,
		RackPower: rackPowers(racks),
		Inactive:  map[power.UPSID]bool{0: true},
		Scenario:  impact.Extreme2(),
		Buffer:    power.KW,
	})
	if err != nil {
		t.Fatal(err)
	}
	throttles, shutdowns := 0, 0
	throttlesDone := false
	for _, a := range actions {
		switch a.Kind {
		case Throttle:
			throttles++
			if throttlesDone {
				t.Fatalf("throttle after first shutdown under Extreme-2: %v", actions)
			}
		case Shutdown:
			shutdowns++
			throttlesDone = true
		}
	}
	if throttles != 6 {
		t.Fatalf("Extreme-2 should throttle all 6 cap-able racks first, got %d", throttles)
	}
	if shutdowns == 0 {
		t.Fatal("Extreme-2 with 33% overdraw must eventually shut down SR racks")
	}
}

func TestPlanInsufficientWhenShaveableExhausted(t *testing.T) {
	topo := testRoom(t)
	// Only non-cap-able racks: nothing can be shaved.
	var racks []ManagedRack
	for _, p := range topo.Pairs {
		racks = append(racks, ManagedRack{
			ID: fmt.Sprintf("nc-%d", p.ID), Workload: "gpucluster",
			Category: workload.NonRedundantNonCapable, Pair: p.ID,
			Allocated: 10 * power.KW, FlexPower: 10 * power.KW,
		})
	}
	ups := []power.Watts{0, 120 * power.KW, 120 * power.KW, 120 * power.KW}
	actions, insufficient, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups,
		RackPower: rackPowers(racks),
		Inactive:  map[power.UPSID]bool{0: true},
		Scenario:  impact.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !insufficient {
		t.Fatal("expected insufficient")
	}
	if len(actions) != 0 {
		t.Fatalf("no shaveable racks, yet actions = %v", actions)
	}
}

func TestPlanSkipsActedRacks(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	ups := []power.Watts{0, 105 * power.KW, 105 * power.KW, 105 * power.KW}
	acted := map[string]bool{}
	first, _, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups, RackPower: rackPowers(racks),
		Inactive: map[power.UPSID]bool{0: true},
		Scenario: impact.Default(), Buffer: power.KW,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range first {
		acted[a.Rack] = true
	}
	second, _, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups, RackPower: rackPowers(racks),
		Inactive: map[power.UPSID]bool{0: true},
		Scenario: impact.Default(), Buffer: power.KW,
		Acted: acted,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range second {
		if acted[a.Rack] {
			t.Fatalf("rack %s selected twice", a.Rack)
		}
	}
}

func TestPlanUsesAllocatedPowerWithoutSnapshot(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	ups := []power.Watts{0, 105 * power.KW, 105 * power.KW, 105 * power.KW}
	// No RackPower at all: estimates fall back to allocated power.
	actions, insufficient, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups,
		Inactive: map[power.UPSID]bool{0: true},
		Scenario: impact.Default(), Buffer: power.KW,
	})
	if err != nil || insufficient {
		t.Fatalf("err=%v insufficient=%v", err, insufficient)
	}
	if len(actions) == 0 {
		t.Fatal("expected actions")
	}
}

func TestPlanPriorityOrdersPickRack(t *testing.T) {
	topo := testRoom(t)
	racks := []ManagedRack{
		{ID: "cap-low", Workload: "vmservice", Category: workload.NonRedundantCapable,
			Pair: 0, Allocated: 50 * power.KW, FlexPower: 40 * power.KW, Priority: 2},
		{ID: "cap-high", Workload: "vmservice", Category: workload.NonRedundantCapable,
			Pair: 0, Allocated: 50 * power.KW, FlexPower: 40 * power.KW, Priority: 1},
	}
	ups := []power.Watts{102 * power.KW, 90 * power.KW, 50 * power.KW, 50 * power.KW}
	actions, _, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups, RackPower: rackPowers(racks),
		Scenario: impact.Default(), Buffer: power.KW,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 || actions[0].Rack != "cap-high" {
		t.Fatalf("actions = %v, want cap-high first (priority 1)", actions)
	}
}

func TestPlanValidatesSnapshotLength(t *testing.T) {
	topo := testRoom(t)
	if _, _, err := PlanContext(context.Background(), PlanInput{Topo: topo, UPSPower: []power.Watts{1, 2}}); err == nil {
		t.Fatal("expected error for short snapshot")
	}
}

func TestActionKindString(t *testing.T) {
	if Shutdown.String() != "shutdown" || Throttle.String() != "throttle" {
		t.Error("kind strings")
	}
}

func TestInferInactiveUPSes(t *testing.T) {
	topo := testRoom(t)
	ups := []power.Watts{1 * power.KW, 120 * power.KW, 120 * power.KW, 120 * power.KW}
	inactive := InferInactiveUPSes(topo, ups, 0.02)
	if len(inactive) != 1 || !inactive[0] {
		t.Fatalf("inactive = %v, want {0}", inactive)
	}
	// Unloaded room: no inference.
	if got := InferInactiveUPSes(topo, []power.Watts{0, 0, 0, 0}, 0.02); len(got) != 0 {
		t.Fatalf("unloaded room inferred %v", got)
	}
}

func TestPlanDoubleFailure(t *testing.T) {
	// Eq. 4 guarantees single-failure safety only, but Algorithm 1 itself
	// is failure-count-agnostic: with two UPSes inactive it must still
	// shave toward the two survivors' limits (possibly reporting
	// insufficient if shaveable power runs out).
	topo := testRoom(t)
	racks := testRacks(topo)
	// Two failures: survivors carry double loads.
	ups := []power.Watts{0, 0, 130 * power.KW, 130 * power.KW}
	inactive := map[power.UPSID]bool{0: true, 1: true}
	actions, insufficient, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups,
		RackPower: rackPowers(racks),
		Inactive:  inactive,
		Scenario:  impact.Extreme1(), // shutdowns recover the most
		Buffer:    power.KW,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Fatal("no actions for a double failure")
	}
	// Replay and confirm the survivors' estimates improved; pairs whose
	// both UPSes are dark contribute nothing.
	est := append([]power.Watts(nil), ups...)
	for _, a := range actions {
		for _, r := range racks {
			if r.ID == a.Rack {
				applyRecovery(topo, est, inactive, r.Pair, a.Recovered)
			}
		}
	}
	if est[2] >= ups[2] && est[3] >= ups[3] {
		t.Fatal("double-failure plan recovered nothing on the survivors")
	}
	_ = insufficient // either outcome is acceptable at this overload
}

func TestPlanIgnoresOverloadOnInactiveUPS(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	// The inactive UPS reports a garbage high value; it must not trigger
	// actions because only active UPSes' limits matter.
	ups := []power.Watts{999 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW}
	actions, insufficient, err := PlanContext(context.Background(), PlanInput{
		Topo: topo, Racks: racks, UPSPower: ups,
		RackPower: rackPowers(racks),
		Inactive:  map[power.UPSID]bool{0: true},
		Scenario:  impact.Default(),
	})
	if err != nil || insufficient {
		t.Fatalf("err=%v insufficient=%v", err, insufficient)
	}
	if len(actions) != 0 {
		t.Fatalf("actions for an inactive UPS's reading: %v", actions)
	}
}
