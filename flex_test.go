package flex

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"flex/internal/power"
)

// TestFacadeEndToEnd exercises the public API the way a downstream user
// would: build a room, generate demand, place it, verify safety, then
// plan corrective actions for a failover snapshot.
func TestFacadeEndToEnd(t *testing.T) {
	room := PaperRoom()
	if room.Topo.ProvisionedPower() != 9.6*MW {
		t.Fatalf("provisioned = %v", room.Topo.ProvisionedPower())
	}
	trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 1)
	if err != nil {
		t.Fatal(err)
	}
	pol := FlexOfflineShort()
	pol.MaxNodes = 150
	pl, err := pol.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl.StrandedFraction() > 0.10 {
		t.Errorf("stranded = %.1f%%", pl.StrandedFraction()*100)
	}

	racks := ExpandRacks(pl)
	if len(racks) == 0 {
		t.Fatal("no racks")
	}
	// Failover snapshot at high utilization: UPS 0 out, survivors over.
	ups := make([]Watts, len(room.Topo.UPSes))
	for u := range ups {
		ups[u] = Watts(0.85 * 4.0 / 3.0 * float64(room.Topo.UPSes[u].Capacity))
	}
	ups[0] = 0
	actions, insufficient, err := PlanActionsContext(context.Background(), PlanInput{
		Topo:     room.Topo,
		Racks:    ManagedRacks(racks),
		UPSPower: ups,
		Inactive: map[UPSID]bool{0: true},
		Scenario: ScenarioRealistic1(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if insufficient {
		t.Error("Flex-Offline placement must guarantee sufficiency")
	}
	if len(actions) == 0 {
		t.Error("no corrective actions at 85% utilization failover")
	}
}

func TestFacadeConstants(t *testing.T) {
	if KW != 1e3 || MW != 1e6 {
		t.Error("unit constants")
	}
	if FlexLatencyBudget != 10*time.Second {
		t.Error("latency budget")
	}
}

func TestFacadeScenariosAndRegions(t *testing.T) {
	var names []string
	for _, sc := range Figure11Scenarios() {
		names = append(names, sc.Name)
	}
	if got := strings.Join(names, ","); got != "Extreme-1,Extreme-2,Realistic-1,Realistic-2" {
		t.Errorf("figure 11 scenarios = %s", got)
	}
}

func TestFacadeAnalyses(t *testing.T) {
	a, err := AnalyzeFeasibility(DefaultFeasibilityParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.NoActionNines < 3.9 {
		t.Errorf("feasibility nines = %v", a.NoActionNines)
	}
	s, err := ComputeSavings(Redundancy{X: 4, Y: 3}, 128*MW, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dollars < 2e8 {
		t.Errorf("savings = %v", s.Dollars)
	}
	if len(CompareDesigns()) == 0 {
		t.Error("design comparison empty")
	}
}

func TestFacadeTraceHelpers(t *testing.T) {
	trace, err := GenerateTrace(DefaultTraceConfig(4.8*MW), 3)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := ShuffleTrace(trace, 5)
	if len(shuffled) != len(trace) {
		t.Error("shuffle changed length")
	}
	topo, err := power.NewRoom(power.RoomConfig{
		Design: Redundancy{X: 5, Y: 4}, UPSCapacity: MW, PairsPerCombination: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Pairs) != 10 { // C(5,2)
		t.Errorf("pairs = %d", len(topo.Pairs))
	}
	room, err := NewPlacementRoom(topo, WithSlotsPerPair(20))
	if err != nil {
		t.Fatal(err)
	}
	if room.TotalSlots() != 200 {
		t.Errorf("slots = %d", room.TotalSlots())
	}
}

// TestFacadeWrappers exercises the thin wrappers end to end.
func TestFacadeWrappers(t *testing.T) {
	// Trace IO.
	trace, err := GenerateTrace(DefaultTraceConfig(4.8*MW), 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil || len(back) != len(trace) {
		t.Fatalf("trace IO wrapper: %v %d", err, len(back))
	}

	// Rooms.
	if EmulationRoom().TotalSlots() != 360 {
		t.Fatal("EmulationRoom wrapper")
	}
	pr, err := NewPlacementRoom(PaperRoom().Topo, WithSlotsPerPair(60), WithReserveUtilization(0.42))
	if err != nil || pr.ReserveUtilization != 0.42 {
		t.Fatal("NewPlacementRoom WithReserveUtilization")
	}

	// Analyses.
	if _, err := SimulateYears(DefaultMonteCarloParams()); err != nil {
		t.Fatal(err)
	}
	a, _ := AnalyzeFeasibility(DefaultFeasibilityParams())
	if d, err := DefaultChargeModel().Discount(SoftwareRedundant, a); err != nil || d <= 0 {
		t.Fatalf("charge model wrapper: %v %v", d, err)
	}
	if len(WeekProfile(0.8, 0.17)) != 168 {
		t.Fatal("WeekProfile wrapper")
	}
	ws, err := FindMaintenanceWindows(WeekProfile(0.8, 0.17), 6, 0.75)
	if err != nil || len(ws) == 0 {
		t.Fatal("FindMaintenanceWindows wrapper")
	}

	// Policies.
	if (RoundRobinPolicy{}).Name() != "RoundRobin" || (FirstFitPolicy{}).Name() != "FirstFit" {
		t.Fatal("policy name wrappers")
	}
}
