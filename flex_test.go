package flex

import (
	"bytes"
	"context"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/rackmgr"
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
	if EndOfLifeTripCurve().Tolerance(4.0/3.0) != 10*time.Second {
		t.Error("trip curve anchor")
	}
	if BeginOfLifeTripCurve().Tolerance(4.0/3.0) != 30*time.Second {
		t.Error("BOL trip curve anchor")
	}
}

func TestFacadeScenariosAndRegions(t *testing.T) {
	if len(Figure11Scenarios()) != 4 {
		t.Error("figure 11 scenarios")
	}
	if len(Figure3Regions()) != 4 {
		t.Error("figure 3 regions")
	}
	f, err := NewImpactFunction("custom", []ImpactPoint{{Fraction: 0, Impact: 0}, {Fraction: 1, Impact: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if f.At(0.5) != 0.5 {
		t.Error("custom impact function")
	}
	if ScenarioDefault().Name != "Default" {
		t.Error("default scenario")
	}
	if ScenarioExtreme1().Name != "Extreme-1" || ScenarioExtreme2().Name != "Extreme-2" {
		t.Error("extreme scenarios")
	}
	if ScenarioRealistic2().Name != "Realistic-2" {
		t.Error("realistic-2")
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
	topo, err := NewTopology(RoomConfig{
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

// TestFacadeCoverage exercises the thin wrappers end to end.
func TestFacadeWrappers(t *testing.T) {
	// Telemetry wrappers.
	view := NewLatestPower()
	view.Update(Sample{Device: "d", Power: 5, Valid: true, MeasuredAt: time.Unix(1, 0)})
	if v, _, ok := view.Get("d"); !ok || v != 5 {
		t.Fatal("LatestPower wrapper")
	}
	est := NewEWMAEstimator(0.5)
	est.Update(Sample{Device: "d", Power: 10, Valid: true, MeasuredAt: time.Unix(1, 0)})
	if m, ok := est.Estimate("d"); !ok || m != 10 {
		t.Fatal("EWMAEstimator wrapper")
	}
	pl := NewPipeline(PipelineConfig{
		UPSSources: map[string]PowerSource{"UPS-1": func() Watts { return MW }},
	})
	if len(pl.BrokerSet) != 2 {
		t.Fatal("pipeline wrapper")
	}
	if TopicUPS == "" || TopicRack == "" {
		t.Fatal("topics")
	}

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

	// Controller construction.
	room := EmulationRoom()
	upsView := NewLatestPower()
	for u := range room.Topo.UPSes {
		upsView.Update(Sample{Device: room.Topo.UPSes[u].Name, Power: 100, Valid: true, MeasuredAt: time.Unix(1, 0)})
	}
	ctl := NewOnlineController(room.Topo, nil,
		WithControllerName("c"),
		WithTelemetryViews(upsView, NewLatestPower()),
		WithActuator(rackmgr.NewManager(clock.Real{}, nil)),
		WithScenario(ScenarioDefault()))
	if out := ctl.StepContext(context.Background()); out.Overdraw {
		t.Fatal("unloaded room should not overdraw")
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

	// Figure 8 wrappers.
	if Figure8A().At(1) != 1 || Figure8B().At(0.5) != 0 || Figure8C().At(0.95) < 1 {
		t.Fatal("Figure 8 wrappers")
	}

	// Policies.
	if (RoundRobinPolicy{}).Name() != "RoundRobin" || (FirstFitPolicy{}).Name() != "FirstFit" {
		t.Fatal("policy name wrappers")
	}
}
