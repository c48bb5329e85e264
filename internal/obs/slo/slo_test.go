package slo_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// harness wires a 4N/3 test room, telemetry views, one controller
// primary, and a bound auditor on a virtual clock.
type harness struct {
	topo     *power.Topology
	racks    []controller.ManagedRack
	upsView  *telemetry.LatestPower
	rackView *telemetry.LatestPower
	mgr      *rackmgr.Manager
	clk      *clock.Virtual
	now      time.Time
	rec      *recorder.Recorder
	ctl      *controller.Controller
	aud      *slo.Auditor
}

// testRacks places one rack of each category on every pair: SR 10kW,
// capable 10kW (flex 8kW), non-capable 10kW — the controller-test room.
func testRacks(topo *power.Topology) []controller.ManagedRack {
	var racks []controller.ManagedRack
	for _, p := range topo.Pairs {
		racks = append(racks,
			controller.ManagedRack{ID: fmt.Sprintf("sr-%d", p.ID), Workload: "websearch",
				Category: workload.SoftwareRedundant, Pair: p.ID,
				Allocated: 10 * power.KW, FlexPower: 0},
			controller.ManagedRack{ID: fmt.Sprintf("cap-%d", p.ID), Workload: "vmservice",
				Category: workload.NonRedundantCapable, Pair: p.ID,
				Allocated: 10 * power.KW, FlexPower: 8 * power.KW},
			controller.ManagedRack{ID: fmt.Sprintf("nc-%d", p.ID), Workload: "gpucluster",
				Category: workload.NonRedundantNonCapable, Pair: p.ID,
				Allocated: 10 * power.KW, FlexPower: 10 * power.KW},
		)
	}
	return racks
}

func newHarness(t *testing.T, cfg slo.Config) *harness {
	t.Helper()
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         100 * power.KW,
		PairsPerCombination: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	racks := testRacks(topo)
	ids := make([]string, len(racks))
	for i, r := range racks {
		ids[i] = r.ID
	}
	clk := clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	h := &harness{
		topo:     topo,
		racks:    racks,
		upsView:  telemetry.NewLatestPower(),
		rackView: telemetry.NewLatestPower(),
		mgr:      rackmgr.NewManager(clk, ids),
		clk:      clk,
		now:      clk.Now(),
		rec:      recorder.New(0),
	}
	h.ctl = controller.New(controller.Config{
		Name:     "ctl-1",
		Clock:    clk,
		Topo:     topo,
		Racks:    racks,
		UPSView:  h.upsView,
		RackView: h.rackView,
		Actuator: h.mgr,
		Scenario: impact.Realistic1(),
		Buffer:   power.KW,
		Recorder: h.rec,
	})
	if cfg.Store == nil {
		cfg.Store = tsdb.NewStore(tsdb.Options{})
	}
	if cfg.Recorder == nil {
		cfg.Recorder = h.rec
	}
	h.aud = slo.NewAuditor(cfg)
	h.aud.Bind(slo.Bindings{
		Clock:            clk,
		Topo:             topo,
		Racks:            racks,
		UPSView:          h.upsView,
		RackView:         h.rackView,
		Controllers:      []*controller.Controller{h.ctl},
		Scenario:         impact.Realistic1(),
		Buffer:           power.KW,
		AllocatablePower: 300 * power.KW,
	})
	return h
}

// feed advances the virtual clock one second and publishes UPS and rack
// power into the views, racks reporting per their manager state.
func (h *harness) feed(ups []power.Watts) {
	h.clk.Advance(time.Second)
	h.now = h.clk.Now()
	for u, w := range ups {
		h.upsView.Update(telemetry.Sample{
			Device: h.topo.UPSes[u].Name, Power: w, Valid: true, MeasuredAt: h.now,
		})
	}
	for _, r := range h.racks {
		st, cap, _ := h.mgr.State(r.ID)
		p := r.Allocated
		switch st {
		case rackmgr.Off:
			p = 0
		case rackmgr.Throttled:
			p = cap
		}
		h.rackView.Update(telemetry.Sample{
			Device: r.ID, Power: p, Valid: true, MeasuredAt: h.now,
		})
	}
}

var (
	normalPower   = []power.Watts{50 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW}
	overdrawPower = []power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW}
)

func TestUnboundAuditorDegraded(t *testing.T) {
	a := slo.NewAuditor(slo.Config{Store: tsdb.NewStore(tsdb.Options{})})
	a.Tick(context.Background(), time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	h := a.Health()
	if h.State != slo.StateDegraded {
		t.Fatalf("unbound health = %v, want degraded", h.State)
	}
	if len(h.Reasons) == 0 {
		t.Fatal("unbound health has no reason")
	}
	if a.Bound() {
		t.Fatal("Bound() = true before Bind")
	}
}

// TestSteadyStateReady drives a healthy room: every objective inside
// budget, the probe round clean, and the derived safety series present
// with the expected values.
func TestSteadyStateReady(t *testing.T) {
	h := newHarness(t, slo.Config{})
	ctx := context.Background()
	h.feed(normalPower)
	h.ctl.StepContext(ctx)
	h.aud.Tick(ctx, h.now)

	if got := h.aud.Health(); got.State != slo.StateReady {
		t.Fatalf("health = %v (%v), want ready", got.State, got.Reasons)
	}
	st := h.aud.Status()
	if st.EpisodeOpen || st.BudgetBurn != 0 {
		t.Fatalf("steady state reports episode: %+v", st)
	}
	if st.Probe.Rounds != 1 || st.Probe.Failures != 0 || st.Probe.CleanRounds != 1 {
		t.Fatalf("probe = %+v, want one clean round", st.Probe)
	}
	if len(st.Objectives) != 5 {
		t.Fatalf("objectives = %d, want 5", len(st.Objectives))
	}
	for _, o := range st.Objectives {
		if o.Bad || o.Breached {
			t.Fatalf("objective %s bad/breached at steady state: %+v", o.Name, o)
		}
	}

	// Derived series: headroom = capacity − measured power.
	store := h.aud.Store()
	last, ok := lastPoint(store, tsdb.SeriesKey(slo.SeriesUPSHeadroom, [2]string{"ups", h.topo.UPSes[0].Name}))
	if !ok {
		t.Fatal("headroom series missing")
	}
	if last.Value != float64(50*power.KW) {
		t.Fatalf("headroom = %v, want 50kW", last.Value)
	}
	// Stranded power (Eq. 5): allocatable 300kW − allocated 180kW.
	last, ok = lastPoint(store, slo.SeriesStrandedPower)
	if !ok {
		t.Fatal("stranded series missing")
	}
	if last.Value != float64(120*power.KW) {
		t.Fatalf("stranded = %v, want 120kW", last.Value)
	}
	if _, ok := lastPoint(store, slo.SeriesBudgetBurn); !ok {
		t.Fatal("budget-burn series missing")
	}
	if _, ok := lastPoint(store, slo.SeriesProbeFeasible); !ok {
		t.Fatal("probe-feasibility series missing")
	}
}

// TestFreshnessBreachAndRecover stalls telemetry until the ups-freshness
// objective burns its budget, then feeds fresh samples until the burn
// drains: the breach and recover events must pair up causally.
func TestFreshnessBreachAndRecover(t *testing.T) {
	h := newHarness(t, slo.Config{ProbeEvery: -1})
	ctx := context.Background()
	h.feed(normalPower)
	h.aud.Tick(ctx, h.now)

	// Stall: advance 5s without new samples. Readings age past the 1s
	// default threshold; the fast-window burn trips immediately.
	h.clk.Advance(5 * time.Second)
	h.now = h.clk.Now()
	h.aud.Tick(ctx, h.now)

	st := h.aud.Status()
	var fresh *slo.Objective
	for i := range st.Objectives {
		if st.Objectives[i].Name == slo.ObjUPSFresh {
			fresh = &st.Objectives[i]
		}
	}
	if fresh == nil || !fresh.Bad || !fresh.Breached {
		t.Fatalf("ups-freshness after stall = %+v, want bad+breached", fresh)
	}
	breaches := eventsOf(h.rec, recorder.TypeSLOBreach, slo.ObjUPSFresh)
	if len(breaches) != 1 {
		t.Fatalf("breach events = %d, want 1", len(breaches))
	}
	if fresh.BreachSeq != breaches[0].Seq {
		t.Fatalf("objective.BreachSeq = %d, event seq = %d", fresh.BreachSeq, breaches[0].Seq)
	}
	if h.aud.Health().State != slo.StateDegraded {
		t.Fatalf("health during breach = %v, want degraded", h.aud.Health().State)
	}

	// Recover: fresh telemetry every second until the bad samples age out
	// of the fast window.
	for i := 0; i < 90; i++ {
		h.feed(normalPower)
		h.aud.Tick(ctx, h.now)
	}
	recovers := eventsOf(h.rec, recorder.TypeSLORecover, slo.ObjUPSFresh)
	if len(recovers) != 1 {
		t.Fatalf("recover events = %d, want 1", len(recovers))
	}
	if recovers[0].Cause != breaches[0].Seq {
		t.Fatalf("recover.Cause = %d, want breach seq %d", recovers[0].Cause, breaches[0].Seq)
	}
	if got := h.aud.Health(); got.State != slo.StateReady {
		t.Fatalf("health after recovery = %v (%v), want ready", got.State, got.Reasons)
	}
}

// TestShedBudgetEpisode fails a UPS and checks the acceptance criterion:
// the status reports budget burn for the open episode, health flips
// ready→degraded and back, and the slo-breach / slo-recover events carry
// the episode ID with recover causally citing its breach.
func TestShedBudgetEpisode(t *testing.T) {
	h := newHarness(t, slo.Config{})
	ctx := context.Background()

	// Steady state first (also consumes the first due probe).
	h.feed(normalPower)
	h.ctl.StepContext(ctx)
	h.aud.Tick(ctx, h.now)
	if h.aud.Health().State != slo.StateReady {
		t.Fatal("not ready before failure")
	}

	// UPS 0 fails; survivors overdraw. The episode opens at detection.
	h.feed(overdrawPower)
	out := h.ctl.StepContext(ctx)
	if !out.Overdraw {
		t.Fatal("overdraw not detected")
	}
	h.aud.Tick(ctx, h.now)
	probeRoundsAtFailure := h.aud.Status().Probe.Rounds

	// One more overdrawn second: burn becomes measurable.
	h.feed(overdrawPower)
	h.ctl.StepContext(ctx)
	h.aud.Tick(ctx, h.now)

	st := h.aud.Status()
	if !st.EpisodeOpen || st.EpisodeID == 0 {
		t.Fatalf("episode not reported: %+v", st)
	}
	if st.BudgetBurn <= 0 || st.BudgetBurn >= 1 {
		t.Fatalf("budget burn = %v, want in (0,1) one second into the episode", st.BudgetBurn)
	}
	if h.aud.Health().State != slo.StateDegraded {
		t.Fatalf("health during episode = %v, want degraded", h.aud.Health().State)
	}
	// Probing is suppressed while a real failure is in progress: modeling
	// a second failure on top is outside the paper's design envelope.
	if st.Probe.Rounds != probeRoundsAtFailure {
		t.Fatalf("probe ran during an open episode: %+v", st.Probe)
	}
	breaches := eventsOf(h.rec, recorder.TypeSLOBreach, slo.ObjShedBudget)
	if len(breaches) != 1 {
		t.Fatalf("shed-budget breach events = %d, want 1", len(breaches))
	}
	if breaches[0].Episode != st.EpisodeID {
		t.Fatalf("breach.Episode = %d, want open episode %d", breaches[0].Episode, st.EpisodeID)
	}

	// Recovery: power returns below capacity, the episode closes, and the
	// breach drains out of the fast window.
	for i := 0; i < 90; i++ {
		h.feed(normalPower)
		h.ctl.StepContext(ctx)
		h.aud.Tick(ctx, h.now)
	}
	if got := h.aud.Health(); got.State != slo.StateReady {
		t.Fatalf("health after recovery = %v (%v), want ready", got.State, got.Reasons)
	}
	recovers := eventsOf(h.rec, recorder.TypeSLORecover, slo.ObjShedBudget)
	if len(recovers) != 1 {
		t.Fatalf("shed-budget recover events = %d, want 1", len(recovers))
	}
	if recovers[0].Cause != breaches[0].Seq {
		t.Fatalf("recover.Cause = %d, want breach seq %d", recovers[0].Cause, breaches[0].Seq)
	}
	if recovers[0].Episode != breaches[0].Episode {
		t.Fatalf("recover.Episode = %d, breach.Episode = %d", recovers[0].Episode, breaches[0].Episode)
	}

	// The health transition history shows the full flip.
	trs := h.aud.Transitions()
	var saw []string
	for _, tr := range trs {
		saw = append(saw, tr.From.String()+"→"+tr.To.String())
	}
	want := map[string]bool{"ready→degraded": false, "degraded→ready": false}
	for _, s := range saw {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for k, ok := range want {
		if !ok {
			t.Fatalf("transition %s missing; saw %v", k, saw)
		}
	}
}

// TestBudgetExhaustedUnsafe keeps an overdraw episode open past the full
// 10s detect→act budget: health must go unsafe.
func TestBudgetExhaustedUnsafe(t *testing.T) {
	h := newHarness(t, slo.Config{ProbeEvery: -1})
	ctx := context.Background()
	h.feed(overdrawPower)
	h.ctl.StepContext(ctx)
	// Keep the overdraw standing for 12 virtual seconds.
	for i := 0; i < 12; i++ {
		h.feed(overdrawPower)
		h.ctl.StepContext(ctx)
		h.aud.Tick(ctx, h.now)
	}
	st := h.aud.Status()
	if st.BudgetBurn < 1 {
		t.Fatalf("budget burn = %v, want >= 1 after 12s", st.BudgetBurn)
	}
	if st.Health.State != slo.StateUnsafe {
		t.Fatalf("health = %v (%v), want unsafe", st.Health.State, st.Health.Reasons)
	}
}

// TestProbeInfeasibleUnsafe builds a room whose load survives normal
// operation but has no shaveable power to cover a failover: the what-if
// probe must flag every UPS infeasible and flip health unsafe even
// though nothing has failed yet.
func TestProbeInfeasibleUnsafe(t *testing.T) {
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         100 * power.KW,
		PairsPerCombination: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One untouchable 60kW rack per pair: normal per-UPS load 90kW fits
	// under capacity−buffer; any failover pushes survivors to 120kW with
	// nothing the planner may act on.
	var racks []controller.ManagedRack
	for _, p := range topo.Pairs {
		racks = append(racks, controller.ManagedRack{
			ID: fmt.Sprintf("nc-%d", p.ID), Workload: "gpucluster",
			Category: workload.NonRedundantNonCapable, Pair: p.ID,
			Allocated: 60 * power.KW, FlexPower: 60 * power.KW,
		})
	}
	clk := clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	upsView, rackView := telemetry.NewLatestPower(), telemetry.NewLatestPower()
	rec := recorder.New(0)
	aud := slo.NewAuditor(slo.Config{Store: tsdb.NewStore(tsdb.Options{}), Recorder: rec})
	aud.Bind(slo.Bindings{
		Clock: clk, Topo: topo, Racks: racks,
		UPSView: upsView, RackView: rackView,
		Scenario: impact.Realistic1(), Buffer: power.KW,
		AllocatablePower: 360 * power.KW,
	})
	clk.Advance(time.Second)
	now := clk.Now()
	for u := range topo.UPSes {
		upsView.Update(telemetry.Sample{
			Device: topo.UPSes[u].Name, Power: 90 * power.KW, Valid: true, MeasuredAt: now,
		})
	}
	for _, r := range racks {
		rackView.Update(telemetry.Sample{Device: r.ID, Power: r.Allocated, Valid: true, MeasuredAt: now})
	}
	aud.Tick(context.Background(), now)

	st := aud.Status()
	if st.Probe.Rounds != 1 || st.Probe.Failures != 1 {
		t.Fatalf("probe = %+v, want one failed round", st.Probe)
	}
	if len(st.Probe.Infeasible) != len(topo.UPSes) {
		t.Fatalf("infeasible = %v, want all %d UPSes", st.Probe.Infeasible, len(topo.UPSes))
	}
	if st.Health.State != slo.StateUnsafe {
		t.Fatalf("health = %v (%v), want unsafe", st.Health.State, st.Health.Reasons)
	}
	fails := eventsOf(rec, recorder.TypeProbeFail, "")
	if len(fails) != len(topo.UPSes) {
		t.Fatalf("probe-fail events = %d, want %d", len(fails), len(topo.UPSes))
	}
	if fails[0].Value <= 0 || fails[0].Detail == "" {
		t.Fatalf("probe-fail event lacks uncovered watts or detail: %+v", fails[0])
	}
	// Feasibility series records the failure.
	if last, ok := lastPoint(aud.Store(), slo.SeriesProbeFeasible); !ok {
		t.Fatal("probe-feasibility series missing")
	} else if last.Value != 0 {
		t.Fatalf("probe feasible = %v, want 0", last.Value)
	}
}

// BenchmarkProbe measures one what-if probe round (a full feasibility
// pass per UPS) — the BENCH_obs.json probe-latency figure.
func BenchmarkProbe(b *testing.B) {
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         100 * power.KW,
		PairsPerCombination: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	racks := testRacks(topo)
	// Load the room so every simulated failover needs real planning.
	for i := range racks {
		racks[i].Allocated = 30 * power.KW
		if racks[i].FlexPower > 0 {
			racks[i].FlexPower = 25 * power.KW
		}
	}
	clk := clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	upsView, rackView := telemetry.NewLatestPower(), telemetry.NewLatestPower()
	aud := slo.NewAuditor(slo.Config{
		Store:      tsdb.NewStore(tsdb.Options{}),
		ProbeEvery: time.Nanosecond, // due every tick
	})
	aud.Bind(slo.Bindings{
		Clock: clk, Topo: topo, Racks: racks,
		UPSView: upsView, RackView: rackView,
		Scenario: impact.Realistic1(), Buffer: power.KW,
		AllocatablePower: 400 * power.KW,
	})
	now := clk.Now()
	for u := range topo.UPSes {
		upsView.Update(telemetry.Sample{
			Device: topo.UPSes[u].Name, Power: 85 * power.KW, Valid: true, MeasuredAt: now,
		})
	}
	for _, r := range racks {
		rackView.Update(telemetry.Sample{Device: r.ID, Power: r.Allocated, Valid: true, MeasuredAt: now})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(time.Second)
		aud.Tick(ctx, clk.Now())
	}
	if aud.Status().Probe.Rounds == 0 {
		b.Fatal("probe never ran")
	}
}

// BenchmarkAuditTick measures a probe-free audit tick: derived-series
// appends plus objective evaluation. Must report 0 allocs/op.
func BenchmarkAuditTick(b *testing.B) {
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         100 * power.KW,
		PairsPerCombination: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	racks := testRacks(topo)
	clk := clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	upsView, rackView := telemetry.NewLatestPower(), telemetry.NewLatestPower()
	aud := slo.NewAuditor(slo.Config{Store: tsdb.NewStore(tsdb.Options{}), ProbeEvery: -1})
	aud.Bind(slo.Bindings{
		Clock: clk, Topo: topo, Racks: racks,
		UPSView: upsView, RackView: rackView,
		Scenario: impact.Realistic1(), Buffer: power.KW,
		AllocatablePower: 300 * power.KW,
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(100 * time.Millisecond)
		now := clk.Now()
		// Fresh readings every tick: stale telemetry would trip the
		// freshness objective and measure a degraded room instead.
		for u := range topo.UPSes {
			upsView.Update(telemetry.Sample{
				Device: topo.UPSes[u].Name, Power: 50 * power.KW, Valid: true, MeasuredAt: now,
			})
		}
		aud.Tick(ctx, now)
	}
	if st := aud.Health().State; st != slo.StateReady {
		b.Fatalf("measured ticks ended %v, want ready", st)
	}
}

// TestPendingRecoveryFollowsFailover enforces a shed plan with UPS 0 out
// and audits before any newer UPS reading lands: each action's recovered
// watts must be credited the way the planner booked them — all of it to
// the surviving UPS of a pair that lost UPS 0, nothing to UPS 0 itself,
// half each on pairs with both UPSes in service.
func TestPendingRecoveryFollowsFailover(t *testing.T) {
	h := newHarness(t, slo.Config{})
	ctx := context.Background()
	h.feed(normalPower)
	h.ctl.StepContext(ctx)
	h.aud.Tick(ctx, h.now)

	h.feed(overdrawPower)
	if out := h.ctl.StepContext(ctx); out.Enforced == 0 {
		t.Fatalf("no action enforced: %+v", out)
	}
	h.aud.Tick(ctx, h.now) // the UPS readings predate the enforcement

	pairOf := map[string]power.PDUPairID{}
	for _, r := range h.racks {
		pairOf[r.ID] = r.Pair
	}
	want := make([]power.Watts, len(h.topo.UPSes))
	onFailedPair := 0
	actions, _ := h.ctl.Record()
	for _, act := range actions {
		ups := h.topo.Pairs[pairOf[act.Rack]].UPSes
		switch {
		case ups[0] == 0:
			want[ups[1]] += act.Recovered
			onFailedPair++
		case ups[1] == 0:
			want[ups[0]] += act.Recovered
			onFailedPair++
		default:
			want[ups[0]] += act.Recovered / 2
			want[ups[1]] += act.Recovered / 2
		}
	}
	if onFailedPair == 0 {
		t.Fatalf("no committed action sits on a pair fed by the failed UPS: %+v", actions)
	}
	for u := range h.topo.UPSes {
		last, ok := lastPoint(h.aud.Store(), tsdb.SeriesKey(slo.SeriesUPSHeadroom, [2]string{"ups", h.topo.UPSes[u].Name}))
		if !ok {
			t.Fatalf("headroom series of %s missing", h.topo.UPSes[u].Name)
		}
		got := power.Watts(last.Value) - (h.topo.UPSes[u].Capacity - overdrawPower[u])
		if d := got - want[u]; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s: pending recovery credited %v, want %v", h.topo.UPSes[u].Name, got, want[u])
		}
	}
}

// TestPendingRecoveryAfterPartialRestore: a reading that shows a shed, and
// has headroom for part of it, sizes a partial restore. The racks left shed
// were shed before that reading, which shows their recovery already, so the
// audit at the reading's instant credits nothing as pending: each UPS's
// headroom is its capacity minus its reading.
func TestPendingRecoveryAfterPartialRestore(t *testing.T) {
	h := newHarness(t, slo.Config{})
	ctx := context.Background()
	h.feed(overdrawPower)
	shed := h.ctl.StepContext(ctx).Enforced
	if shed == 0 {
		t.Fatal("setup: no action enforced")
	}
	partial := []power.Watts{94 * power.KW, 94 * power.KW, 94 * power.KW, 94 * power.KW}
	h.feed(partial)
	if out := h.ctl.StepContext(ctx); out.Restored == 0 || out.Restored == shed {
		t.Fatalf("setup: restored %d of %d racks, want some but not all", out.Restored, shed)
	}
	h.aud.Tick(ctx, h.now)
	for u := range h.topo.UPSes {
		last, ok := lastPoint(h.aud.Store(), tsdb.SeriesKey(slo.SeriesUPSHeadroom, [2]string{"ups", h.topo.UPSes[u].Name}))
		if !ok {
			t.Fatalf("headroom series of %s missing", h.topo.UPSes[u].Name)
		}
		if got, want := power.Watts(last.Value), h.topo.UPSes[u].Capacity-partial[u]; got != want {
			t.Errorf("%s: headroom %v, want %v: racks shed before the reading are credited as pending", h.topo.UPSes[u].Name, got, want)
		}
	}
}

// TestSteadyTickAllocFree holds the audit tick the emulators run every
// step to zero allocations once no probe is due and nothing transitions:
// full bindings (controller, stage histograms, recorder), racks reporting,
// no open episode.
func TestSteadyTickAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	store := tsdb.NewStore(tsdb.Options{})
	h := newHarness(t, slo.Config{Store: store, UPSFreshness: time.Hour, RackFreshness: time.Hour})
	stages := obs.NewStageMetrics(reg)
	stages.ObserveRound(&obs.StageBounds{obs.StagePlan: h.now, obs.StageAct: h.now.Add(20 * time.Millisecond)}, obs.Exemplar{})
	h.aud.Bind(slo.Bindings{
		Clock: h.clk, Topo: h.topo, Racks: h.racks, UPSView: h.upsView, RackView: h.rackView,
		Controllers: []*controller.Controller{h.ctl}, Scenario: impact.Realistic1(), Buffer: power.KW,
		AllocatablePower: 300 * power.KW, Stages: stages,
	})
	ctx := context.Background()
	h.feed(normalPower)
	h.ctl.StepContext(ctx)
	h.aud.Tick(ctx, h.now) // the first tick runs the probe round
	rounds := h.aud.Status().Probe.Rounds
	now := h.now
	allocs := testing.AllocsPerRun(200, func() {
		now = now.Add(10 * time.Millisecond) // 2s in all: inside ProbeEvery
		h.aud.Tick(ctx, now)
	})
	if allocs != 0 {
		t.Errorf("steady-state Auditor.Tick: %v allocs/op, want 0", allocs)
	}
	if st := h.aud.Status(); st.Probe.Rounds != rounds || st.Health.State != slo.StateReady {
		t.Fatalf("the measured ticks were not steady state: %d probe rounds (from %d), health %v", st.Probe.Rounds, rounds, st.Health.State)
	}
}

// TestProbeRoundAllocs pins what a what-if round still allocates when all
// four failovers need a plan and all four plans are feasible: per UPS, the
// budget the probe promises to plan under (context.WithTimeout, four
// allocations) and FailoverLoads' result (one). Algorithm 1 itself, the
// pair loads and the inactive sets are the auditor's own scratch.
func TestProbeRoundAllocs(t *testing.T) {
	h := newHarness(t, slo.Config{ProbeEvery: time.Nanosecond, UPSFreshness: time.Hour, RackFreshness: time.Hour})
	load := power.NewPairLoad(h.topo)
	for i := range h.racks {
		r := &h.racks[i]
		r.Allocated = 18 * power.KW
		if r.FlexPower > 0 {
			r.FlexPower = 14 * power.KW
		}
		load[r.Pair] += r.Allocated
	}
	for f := range h.topo.UPSes {
		overloads := false
		for u, w := range h.topo.FailoverLoads(load, power.UPSID(f)) {
			overloads = overloads || w > h.topo.UPSes[u].Capacity-power.KW
		}
		if !overloads {
			t.Fatalf("fixture: losing UPS %d overloads nothing, the probe would not plan", f)
		}
	}
	h.aud.Bind(slo.Bindings{
		Clock: h.clk, Topo: h.topo, Racks: h.racks, UPSView: h.upsView, RackView: h.rackView,
		Controllers: []*controller.Controller{h.ctl}, Scenario: impact.Realistic1(), Buffer: power.KW,
		AllocatablePower: 400 * power.KW,
	})
	ctx := context.Background()
	h.feed(normalPower)
	h.aud.Tick(ctx, h.now) // the first round sizes the action buffer
	before := h.aud.Status().Probe
	now := h.now
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		now = now.Add(time.Millisecond)
		h.aud.Tick(ctx, now)
	})
	if st := h.aud.Status(); st.Probe.Rounds != before.Rounds+runs+1 || st.Probe.Failures != 0 || st.Health.State != slo.StateReady {
		t.Fatalf("the measured ticks were not feasible probe rounds: %+v (from %+v), health %v", st.Probe, before, st.Health.State)
	}
	if max := float64(5 * len(h.topo.UPSes)); allocs > max {
		t.Errorf("feasible probe round: %v allocs/op, want at most %v", allocs, max)
	}
}

// lastPoint is the newest point of a stored series; ok is false when
// nothing was written to it.
func lastPoint(st *tsdb.Store, key string) (tsdb.Point, bool) {
	raw := st.Series(key).Raw()
	if len(raw) == 0 {
		return tsdb.Point{}, false
	}
	return raw[len(raw)-1], true
}

// eventsOf returns the recorded events of one type — of one subject too,
// unless subject is empty — in sequence order.
func eventsOf(rec *recorder.Recorder, typ recorder.Type, subject string) []recorder.Event {
	var out []recorder.Event
	for _, e := range rec.Snapshot() {
		if e.Type == typ && (subject == "" || e.Subject == subject) {
			out = append(out, e)
		}
	}
	return out
}
