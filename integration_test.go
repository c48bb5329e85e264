package flex

// Cross-module integration tests: the full Flex stack wired together the
// way production would run it — placement feeding the controller's rack
// inventory, telemetry feeding its views, the rack-manager fleet enforcing
// its actions — with failures injected at every layer.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/milp"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/sim"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// TestIntegrationPlacementSafetyUnderCascade places a full trace with
// every policy and proves, via the trip-curve cascade simulator, that the
// worst-case shaved load never produces an outage for any initial UPS
// failure — the paper's core safety claim.
func TestIntegrationPlacementSafetyUnderCascade(t *testing.T) {
	room := PaperRoom()
	trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 33)
	if err != nil {
		t.Fatal(err)
	}
	short := FlexOfflineShort()
	short.MaxNodes = 150
	for _, pol := range []Policy{RandomPolicy{Seed: 3}, BalancedRoundRobinPolicy{}, short} {
		pl, err := pol.Place(context.Background(), room, trace)
		if err != nil {
			t.Fatal(err)
		}
		capLoad := pl.CapPairLoad()
		for f := range room.Topo.UPSes {
			out := room.Topo.SimulateCascade(capLoad, UPSID(f), power.EndOfLifeTripCurve, time.Hour)
			if out.Outage {
				t.Fatalf("%s: cascade after maximal shaving, failure of UPS %d", pol.Name(), f)
			}
		}
	}
}

// TestIntegrationAlgorithm1CoversEveryFailure verifies that, for a
// Flex-Offline placement at full allocation (the Eq. 4 worst case),
// Algorithm 1 finds a sufficient action set for every UPS failure — the
// offline/online contract.
func TestIntegrationAlgorithm1CoversEveryFailure(t *testing.T) {
	room := PaperRoom()
	trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 5)
	if err != nil {
		t.Fatal(err)
	}
	pol := FlexOfflineShort()
	pol.MaxNodes = 150
	pl, err := pol.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	racks := ExpandRacks(pl)
	managed := ManagedRacks(racks)
	// Worst case: every rack at allocated power (100% utilization).
	rackPower := make(map[string]Watts, len(racks))
	for _, r := range racks {
		rackPower[r.ID] = r.Allocated
	}
	load := sim.PairLoadFromRacks(room.Topo, racks, rackPower)
	for f := range room.Topo.UPSes {
		ups := room.Topo.FailoverLoads(load, UPSID(f))
		actions, insufficient, err := PlanActionsContext(context.Background(), PlanInput{
			Topo: room.Topo, Racks: managed, UPSPower: ups,
			RackPower: rackPower,
			Inactive:  map[UPSID]bool{UPSID(f): true},
			Scenario:  ScenarioRealistic1(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if insufficient {
			t.Fatalf("failure of UPS %d: Algorithm 1 insufficient at 100%% utilization — Eq. 4 contract broken", f)
		}
		if len(actions) == 0 {
			t.Fatalf("failure of UPS %d: no actions at 100%% utilization", f)
		}
	}
}

// TestIntegrationTelemetryToActuation runs telemetry → views → controller →
// rack manager end to end with injected meter, poller, and broker faults,
// on a virtual clock. Figure 7 is stepped on the test goroutine, as the
// fleet steps it: consensus meters polled by two pollers per topic into two
// brokers, every broker's subscription drained into the controller's views.
func TestIntegrationTelemetryToActuation(t *testing.T) {
	topo, err := power.NewRoom(power.RoomConfig{
		Design: Redundancy{X: 4, Y: 3}, UPSCapacity: 100 * KW, PairsPerCombination: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One SR and one cap-able rack per pair; ground truth driven below.
	type liveRack struct {
		m     ManagedRack
		power Watts
	}
	var racks []liveRack
	for _, p := range topo.Pairs {
		racks = append(racks,
			liveRack{m: ManagedRack{ID: "sr-" + p.Name, Workload: "search",
				Category: SoftwareRedundant, Pair: p.ID, Allocated: 33 * KW}},
			liveRack{m: ManagedRack{ID: "cap-" + p.Name, Workload: "vms",
				Category: NonRedundantCapable, Pair: p.ID, Allocated: 33 * KW, FlexPower: 28 * KW}},
		)
	}
	inactive := map[UPSID]bool{}
	truth := func(u int) Watts {
		var loads [4]Watts
		for _, r := range racks {
			pair := topo.Pairs[r.m.Pair]
			a, b := pair.UPSes[0], pair.UPSes[1]
			switch {
			case inactive[a] && inactive[b]:
			case inactive[a]:
				loads[b] += r.power
			case inactive[b]:
				loads[a] += r.power
			default:
				loads[a] += r.power / 2
				loads[b] += r.power / 2
			}
		}
		return loads[u]
	}

	clk := clock.NewVirtual(time.Unix(0, 0))
	seed := int64(2)
	var upsTargets, rackTargets []telemetry.Target
	var upsMeters []*telemetry.LogicalMeter
	for u := range topo.UPSes {
		u := u
		lm := telemetry.NewUPSLogicalMeter(topo.UPSes[u].Name,
			func() power.Watts { return truth(u) }, func() power.Watts { return 0 }, seed)
		seed += 10
		upsMeters = append(upsMeters, lm)
		upsTargets = append(upsTargets, telemetry.Target{Meter: lm, Topic: telemetry.TopicUPS})
	}
	for i := range racks {
		r := &racks[i]
		src := func() power.Watts { return r.power }
		lm, err := telemetry.NewLogicalMeter(r.m.ID,
			telemetry.NewSimMeter(r.m.ID+"/psu", src, telemetry.SimMeterConfig{Noise: 0.01, Seed: seed}),
			telemetry.NewSimMeter(r.m.ID+"/pdu", src, telemetry.SimMeterConfig{Noise: 0.01, Seed: seed + 1}))
		if err != nil {
			t.Fatal(err)
		}
		seed += 10
		lm.Quorum = 1
		rackTargets = append(rackTargets, telemetry.Target{Meter: lm, Topic: telemetry.TopicRack})
	}
	brokers := []*telemetry.Broker{telemetry.NewBroker("pubsub-A"), telemetry.NewBroker("pubsub-B")}
	var pollers []*telemetry.Poller
	for _, name := range []string{"poller-A", "poller-B"} {
		pollers = append(pollers,
			telemetry.NewPoller(name+"-ups", clk, brokers, upsTargets),
			telemetry.NewPoller(name+"-rack", clk, brokers, rackTargets))
	}
	upsView := telemetry.NewLatestPower()
	rackView := telemetry.NewLatestPower()
	var subs []*telemetry.Subscription
	var views []*telemetry.LatestPower
	for _, b := range brokers {
		subs = append(subs, b.Subscribe(telemetry.TopicUPS, 64), b.Subscribe(telemetry.TopicRack, 64))
		views = append(views, upsView, rackView)
	}
	// pump is one poll round on every poller, drained into the views.
	pump := func() {
		for _, p := range pollers {
			p.PollOnce()
		}
		for i, sub := range subs {
			sub.Drain(func(run []telemetry.Sample) { views[i].UpdateBatch(run, clk.Now()) })
		}
	}

	ids := make([]string, len(racks))
	managed := make([]ManagedRack, len(racks))
	for i, r := range racks {
		ids[i] = r.m.ID
		managed[i] = r.m
	}
	mgr := rackmgr.NewManager(clk, ids)
	ctl := controller.New(controller.Config{
		Name: "it", Clock: clk, Topo: topo, Racks: managed,
		UPSView: upsView, RackView: rackView, Actuator: mgr,
		Scenario: ScenarioRealistic1(), Buffer: KW,
	})

	// Inject faults across the pipeline: one meter misreads, one poller
	// and one broker are down. The stack must still work.
	upsMeters[1].Meters()[0].(*telemetry.SimMeter).SetOffset(50 * KW)
	pollers[0].SetDown(true)
	brokers[0].SetDown(true)

	// Normal operation at ~72% utilization.
	for i := range racks {
		racks[i].power = Watts(0.72 * float64(racks[i].m.Allocated))
	}
	pump()
	if _, _, ok := upsView.Get(topo.UPSes[3].Name); !ok {
		t.Fatal("telemetry never reached the view")
	}
	if out := ctl.StepContext(context.Background()); out.Overdraw {
		t.Fatalf("false overdraw at 72%% utilization: %+v", out)
	}

	// Fail UPS 0 at ~85% utilization.
	for i := range racks {
		racks[i].power = Watts(0.85 * float64(racks[i].m.Allocated))
	}
	inactive[0] = true
	clk.Advance(2 * time.Second)
	pump()
	if v, _, _ := upsView.Get(topo.UPSes[0].Name); v >= 5*KW {
		t.Fatalf("post-failover view holds %v for the failed UPS", v)
	}
	out := ctl.StepContext(context.Background())
	if !out.Overdraw || out.Enforced == 0 {
		t.Fatalf("controller did not act on failover: %+v", out)
	}
	// Apply the actuation to the ground truth and verify survivors are
	// back under capacity.
	for i := range racks {
		st, cap, err := mgr.State(racks[i].m.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch st {
		case rackmgr.Off:
			racks[i].power = 0
		case rackmgr.Throttled:
			if racks[i].power > cap {
				racks[i].power = cap
			}
		}
	}
	for u := 1; u < 4; u++ {
		if truth(u) > 100*KW {
			t.Fatalf("survivor %d still over capacity after enforcement: %v", u, truth(u))
		}
	}

	// Recovery: UPS back, load drops, controller restores.
	delete(inactive, 0)
	clk.Advance(2 * time.Second)
	pump()
	if v, _, _ := upsView.Get(topo.UPSes[0].Name); v <= 5*KW {
		t.Fatalf("post-recovery view holds %v for the recovered UPS", v)
	}
	out = ctl.StepContext(context.Background())
	if out.Restored == 0 {
		t.Fatalf("controller did not restore after recovery: %+v", out)
	}
}

// TestIntegrationWatchdogGuardsControllerActuation exercises the §VI
// loop: the watchdog flags a broken rack-manager path before the
// controller needs it.
func TestIntegrationWatchdogGuardsControllerActuation(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	mgr := rackmgr.NewManager(clk, []string{"r1", "r2"})
	w := rackmgr.NewWatchdog(mgr, clk)
	if len(w.SweepOnce()) != 0 {
		t.Fatal("healthy fleet alerted")
	}
	if err := mgr.SetFirmwareOK("r2", false); err != nil {
		t.Fatal(err)
	}
	alerts := w.SweepOnce()
	if len(alerts) != 1 || alerts[0].Rack != "r2" {
		t.Fatalf("alerts = %v", alerts)
	}
	// The flagged rack indeed refuses actions — exactly what the
	// watchdog's fake-action probe predicts.
	if err := mgr.Shutdown("r2"); err == nil {
		t.Fatal("broken firmware accepted an action")
	}
	if err := mgr.Shutdown("r1"); err != nil {
		t.Fatalf("healthy rack refused: %v", err)
	}
}

// TestIntegrationTraceStatisticsFeedPlacement sanity-checks that the
// generated demand honors the paper's mix closely enough for the
// placement results to be comparable across modules.
func TestIntegrationTraceStatisticsFeedPlacement(t *testing.T) {
	room := PaperRoom()
	cfg := DefaultTraceConfig(room.Topo.ProvisionedPower())
	rng := rand.New(rand.NewSource(77))
	trace, err := workload.GenerateTrace(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	byCategory := func(ds []workload.Deployment, placed func(workload.Deployment) bool) (map[workload.Category]Watts, Watts) {
		by := make(map[workload.Category]Watts)
		var total Watts
		for _, d := range ds {
			if placed(d) {
				by[d.Category] += d.TotalPower()
				total += d.TotalPower()
			}
		}
		return by, total
	}
	by, total := byCategory(trace, func(workload.Deployment) bool { return true })
	if total < cfg.TargetDemand {
		t.Fatalf("demand %v below target %v", total, cfg.TargetDemand)
	}
	srShare := float64(by[SoftwareRedundant]) / float64(total)
	if srShare < 0.09 || srShare > 0.17 {
		t.Fatalf("SR share %.3f far from 0.13", srShare)
	}
	pol := FlexOfflineShort()
	pol.MaxNodes = 150
	pl, err := pol.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	placedBy, _ := byCategory(pl.Deployments, func(d workload.Deployment) bool {
		_, ok := pl.Assignments[d.ID]
		return ok
	})
	for _, cat := range workload.Categories {
		if placedBy[cat] <= 0 {
			t.Fatalf("category %v absent from placement", cat)
		}
	}
}

// TestIntegrationControllerDeterminism: same seeds, same everything.
func TestIntegrationControllerDeterminism(t *testing.T) {
	run := func() []controller.PlannedAction {
		room := PaperRoom()
		trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 13)
		if err != nil {
			t.Fatal(err)
		}
		pol := FlexOfflineShort()
		pol.MaxNodes = 100
		pl, err := pol.Place(context.Background(), room, trace)
		if err != nil {
			t.Fatal(err)
		}
		racks := ExpandRacks(pl)
		rackPower := sim.SampleRackPowers(racks, 0.83, rand.New(rand.NewSource(3)))
		load := sim.PairLoadFromRacks(room.Topo, racks, rackPower)
		ups := room.Topo.FailoverLoads(load, 2)
		actions, _, err := PlanActionsContext(context.Background(), PlanInput{
			Topo: room.Topo, Racks: ManagedRacks(racks), UPSPower: ups,
			RackPower: rackPower, Inactive: map[UPSID]bool{2: true},
			Scenario: impact.Realistic2(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return actions
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("plans differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Rack != b[i].Rack || a[i].Kind != b[i].Kind {
			t.Fatalf("plan diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestBatchPlacementILP checks the batch ILP Flex-Offline solves per flush
// is the real formulation: a valid 0/1 packing program with a feasible
// placement for the batch.
func TestBatchPlacementILP(t *testing.T) {
	room := PaperRoom()
	trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 3)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.BatchILP(room, trace[:6])
	if err := p.Validate(); err != nil {
		t.Fatalf("malformed problem: %v", err)
	}
	r, err := milp.SolveContext(context.Background(), p, milp.Options{MaxNodes: 400})
	if err != nil {
		t.Fatal(err)
	}
	if r.X == nil {
		t.Fatalf("no feasible batch placement found (status %v)", r.Status)
	}
}
