package controller

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// TestPlanMixedCategoryWorkload: a workload name reused across categories
// (workload.ReadTrace accepts such a trace, and any caller can build such a
// rack list) must still get each rack its own category's action — the kind
// used to come from whichever of the workload's racks sorted first, which
// powered off a non-redundant rack or "throttled" a software-redundant one
// to a zero cap.
func TestPlanMixedCategoryWorkload(t *testing.T) {
	topo := testRoom(t)
	for _, tc := range []struct {
		name    string
		sr, cap string // rack IDs: the lower one sorts first and names the workload's category
	}{
		{"software-redundant rack first", "a", "b"},
		{"cap-able rack first", "b", "a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			racks := []ManagedRack{
				{ID: tc.sr, Workload: "web", Category: workload.SoftwareRedundant,
					Pair: 0, Allocated: 20 * power.KW},
				{ID: tc.cap, Workload: "web", Category: workload.NonRedundantCapable,
					Pair: 0, Allocated: 20 * power.KW, FlexPower: 15 * power.KW},
			}
			// Pair 0's first UPS is 12 kW over limit − buffer: both racks
			// are needed (10 kW from the shutdown, 2.5 kW from the throttle).
			ups := []power.Watts{50 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW}
			ups[topo.Pairs[0].UPSes[0]] = 111 * power.KW
			actions, insufficient, err := PlanContext(context.Background(), PlanInput{
				Topo: topo, Racks: racks, UPSPower: ups, RackPower: rackPowers(racks),
				Scenario: impact.Default(), Buffer: power.KW,
			})
			if err != nil || insufficient {
				t.Fatalf("err=%v insufficient=%v", err, insufficient)
			}
			if len(actions) != 2 {
				t.Fatalf("actions = %+v, want both racks acted on", actions)
			}
			for _, a := range actions {
				want := PlannedAction{Rack: tc.sr, Workload: "web", Kind: Shutdown, Recovered: 20 * power.KW}
				if a.Rack == tc.cap {
					want = PlannedAction{Rack: tc.cap, Workload: "web", Kind: Throttle, Recovered: 5 * power.KW, CapTarget: 15 * power.KW}
				}
				want.Impact = a.Impact // the impact function stays the workload's
				if a != want {
					t.Errorf("action %+v, want %+v", a, want)
				}
			}
		})
	}
}

// referencePlan is Algorithm 1 built from scratch on every call: the body
// PlanContext had before the prepared Planner existed, copied verbatim but
// for the Pair each action now carries. It is the oracle
// TestPlanMatchesReference and FuzzPlanMatchesReference hold every other
// form of the algorithm to, bit for bit.
func referencePlan(ctx context.Context, in PlanInput) (actions []PlannedAction, insufficient bool, err error) {
	topo := in.Topo
	if len(in.UPSPower) != len(topo.UPSes) {
		return nil, false, fmt.Errorf("controller: UPS snapshot has %d entries for %d UPSes", len(in.UPSPower), len(topo.UPSes))
	}
	est := append([]power.Watts(nil), in.UPSPower...)

	// Per-workload bookkeeping for impact fractions and PickRack order.
	type wl struct {
		name     string
		fn       impact.Function
		total    int
		affected int
		queue    []*ManagedRack // not yet acted, in priority order
	}
	byName := map[string]*wl{}
	var order []string
	racks := make([]ManagedRack, len(in.Racks))
	copy(racks, in.Racks)
	sort.SliceStable(racks, func(i, j int) bool {
		if racks[i].Priority != racks[j].Priority {
			return racks[i].Priority < racks[j].Priority
		}
		return racks[i].ID < racks[j].ID
	})
	for i := range racks {
		r := &racks[i]
		w, ok := byName[r.Workload]
		if !ok {
			w = &wl{
				name: r.Workload,
				fn:   in.Scenario.For(r.Workload, r.Category),
			}
			byName[r.Workload] = w
			order = append(order, r.Workload)
		}
		w.total++
		if in.Acted[r.ID] {
			w.affected++
			continue
		}
		// Only the categories line 8 defines an action for queue up.
		switch r.Category {
		case workload.SoftwareRedundant, workload.NonRedundantCapable:
			w.queue = append(w.queue, r)
		}
	}
	sort.Strings(order)

	rackPower := func(r *ManagedRack) power.Watts {
		if p, ok := in.RackPower[r.ID]; ok {
			return p
		}
		return r.Allocated // conservative: assume full draw
	}

	overLimit := func(slack power.Watts) bool {
		for u := range topo.UPSes {
			if in.Inactive[power.UPSID(u)] {
				continue
			}
			if est[u] > topo.UPSes[u].Capacity-in.Buffer+slack {
				return true
			}
		}
		return false
	}

	type candidate struct {
		w   *wl
		r   *ManagedRack
		act PlannedAction
	}
	cands := make([]candidate, 0, len(order))
	for overLimit(0) {
		if ctx.Err() != nil {
			return actions, true, context.Cause(ctx)
		}
		// Build the candidate set C (lines 5–12): one rack per workload.
		cands = cands[:0]
		for _, name := range order {
			w := byName[name]
			if len(w.queue) == 0 {
				continue
			}
			r := w.queue[0]
			p := rackPower(r)
			// The action is the rack's own category's (line 8), whatever
			// its workload's other racks are: a non-redundant rack is
			// never powered off.
			act := PlannedAction{Rack: r.ID, Workload: name, Pair: r.Pair, Kind: Shutdown, Recovered: p}
			if r.Category == workload.NonRedundantCapable {
				rec := p - r.FlexPower
				if rec < 0 {
					rec = 0
				}
				act = PlannedAction{Rack: r.ID, Workload: name, Pair: r.Pair, Kind: Throttle, Recovered: rec, CapTarget: r.FlexPower}
			}
			frac := float64(w.affected+1) / float64(w.total)
			act.Impact = w.fn.At(frac)
			cands = append(cands, candidate{w: w, r: r, act: act})
		}
		if len(cands) == 0 {
			return actions, overLimit(power.CapacityTolerance), nil // exhausted all shaveable racks
		}
		// Select argmin impact (line 13); ties: max recovered, then ID.
		best := 0
		for i := 1; i < len(cands); i++ {
			a, b := cands[i].act, cands[best].act
			switch {
			case a.Impact < b.Impact-1e-12:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered > b.Recovered:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered == b.Recovered && a.Rack < b.Rack:
				best = i
			}
		}
		chosen := cands[best]
		actions = append(actions, chosen.act)
		chosen.w.affected++
		chosen.w.queue = chosen.w.queue[1:]
		// Update the UPS estimates with the rack's share (line 15).
		applyRecovery(topo, est, in.Inactive, chosen.r.Pair, chosen.act.Recovered)
	}
	return actions, false, nil
}

// planOutcome is what one run of Algorithm 1 returned.
type planOutcome struct {
	actions      []PlannedAction
	insufficient bool
	err          error
}

// diff names the first difference between two outcomes, comparing every
// float by its bits; "" means they are identical.
func (got planOutcome) diff(want planOutcome) string {
	if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
		return fmt.Sprintf("err %v, want %v", got.err, want.err)
	}
	if got.insufficient != want.insufficient {
		return fmt.Sprintf("insufficient %v, want %v", got.insufficient, want.insufficient)
	}
	if len(got.actions) != len(want.actions) {
		return fmt.Sprintf("%d actions, want %d", len(got.actions), len(want.actions))
	}
	bits := func(w power.Watts) uint64 { return math.Float64bits(float64(w)) }
	for i, g := range got.actions {
		w := want.actions[i]
		if g.Rack != w.Rack || g.Workload != w.Workload || g.Pair != w.Pair || g.Kind != w.Kind ||
			bits(g.Recovered) != bits(w.Recovered) || bits(g.CapTarget) != bits(w.CapTarget) ||
			math.Float64bits(g.Impact) != math.Float64bits(w.Impact) {
			return fmt.Sprintf("action %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// expiringCtx is a context whose Err starts failing after polls calls
// (never, when polls is negative): a plan budget that runs out after that
// many greedy iterations.
func expiringCtx(polls int) context.Context {
	if polls < 0 {
		return context.Background()
	}
	return &errAfterCtx{Context: context.Background(), left: polls, cause: errors.New("plan budget spent")}
}

// planForms are the ways to run Algorithm 1 that must agree with
// referencePlan on every input: the one-shot PlanContext, and one Planner
// with one action buffer that every call of the returned form shares —
// what a plan leaves behind in either must not reach the next. Each form
// gets a fresh ctx of the same budget, since polling Err is what spends it.
func planForms(topo *power.Topology, racks []ManagedRack, scenario impact.Scenario) map[string]func(context.Context, PlanInput) planOutcome {
	planner := NewPlanner(topo, racks, scenario)
	var buf []PlannedAction
	return map[string]func(context.Context, PlanInput) planOutcome{
		"PlanContext": func(ctx context.Context, in PlanInput) planOutcome {
			a, ins, err := PlanContext(ctx, in)
			return planOutcome{a, ins, err}
		},
		"reused Planner": func(ctx context.Context, in PlanInput) planOutcome {
			a, ins, err := planner.Plan(ctx, in, buf)
			buf = a
			return planOutcome{a, ins, err}
		},
	}
}

// room4N3 is a 4N/3 room with one PDU-pair per UPS combination: at
// 1.2 MW a UPS, the §V-C emulation room's power topology (built here
// without internal/placement, which imports this package's importers).
func room4N3(t testing.TB, upsCapacity power.Watts) *power.Topology {
	t.Helper()
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         upsCapacity,
		PairsPerCombination: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// emulationRacks fills the emulation room the way its placed trace does:
// 275 racks in deployments of 5–20, each on the pair with the least
// allocated so far, one workload per category, 14–17 kW a rack with flex
// power at 85 %.
func emulationRacks(topo *power.Topology, rng *rand.Rand) []ManagedRack {
	var racks []ManagedRack
	allocated := power.NewPairLoad(topo)
	for dep := 0; len(racks) < 275; dep++ {
		r := ManagedRack{Allocated: power.Watts(14+rng.Intn(4)) * power.KW}
		for p := range allocated {
			if allocated[p] < allocated[r.Pair] {
				r.Pair = power.PDUPairID(p)
			}
		}
		switch x := rng.Float64(); {
		case x < 0.15:
			r.Workload, r.Category = "websearch", workload.SoftwareRedundant
		case x < 0.70:
			r.Workload, r.Category = "vmservice", workload.NonRedundantCapable
			r.FlexPower = 0.85 * r.Allocated
		default:
			r.Workload, r.Category = "gpucluster", workload.NonRedundantNonCapable
			r.FlexPower = r.Allocated
		}
		for i, n := 0, 5+rng.Intn(16); i < n && len(racks) < 275; i++ {
			r.ID = fmt.Sprintf("dep%03d-rack%02d", dep, i)
			racks = append(racks, r)
			allocated[r.Pair] += r.Allocated
		}
	}
	return racks
}

// snapshot draws every rack at about util of its allocation and returns
// the rack readings with the UPS loads they put on the room while the UPSes
// in out are out of service.
func snapshot(topo *power.Topology, racks []ManagedRack, util float64, out power.UPSSet, rng *rand.Rand) (map[string]power.Watts, []power.Watts) {
	rackPower := make(map[string]power.Watts, len(racks))
	load := power.NewPairLoad(topo)
	for _, r := range racks {
		p := power.Watts(util+0.05*rng.NormFloat64()) * r.Allocated
		rackPower[r.ID] = p
		load[r.Pair] += p
	}
	ups, _ := topo.LoadFlow(load, out)
	return rackPower, ups
}

// TestPlanMatchesReference runs every form of Algorithm 1 over an
// emulation-sized room and a spread of moments — no overdraw, each single
// failure, two failures, acted sets from empty to everything, missing rack
// readings, budgets that expire mid-plan, overdraw no shedding can cover —
// and requires the reference's outcome bit for bit.
func TestPlanMatchesReference(t *testing.T) {
	topo := room4N3(t, 1.2*power.MW)
	scenarios := append(impact.Figure11Scenarios(), impact.Default())
	for _, rs := range []struct {
		name   string
		adjust func(i int, r *ManagedRack)
	}{
		{"uniform priority", func(int, *ManagedRack) {}},
		{"priorities reorder IDs", func(i int, r *ManagedRack) { r.Priority = (i * 7) % 5 }},
		{"workloads mix categories", func(i int, r *ManagedRack) {
			if i%9 == 0 {
				r.Workload = "websearch"
			}
		}},
	} {
		t.Run(rs.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			racks := emulationRacks(topo, rng)
			for i := range racks {
				rs.adjust(i, &racks[i])
			}
			for si, scenario := range scenarios {
				forms := planForms(topo, racks, scenario)
				check := func(name string, polls int, in PlanInput) planOutcome {
					t.Helper()
					in.Topo, in.Racks, in.Scenario = topo, racks, scenario
					a, ins, err := referencePlan(expiringCtx(polls), in)
					want := planOutcome{a, ins, err}
					for form, plan := range forms {
						if d := plan(expiringCtx(polls), in).diff(want); d != "" {
							t.Errorf("%s, %s, %s: %s", scenario.Name, name, form, d)
						}
					}
					return want
				}

				buffer := DefaultBuffer(topo)
				rp, ups := snapshot(topo, racks, 0.5, 0, rng)
				if got := check("no overdraw", -1, PlanInput{UPSPower: ups, RackPower: rp, Buffer: buffer}); len(got.actions) != 0 {
					t.Fatalf("fixture: %d actions at half load", len(got.actions))
				}
				check("short UPS snapshot", -1, PlanInput{UPSPower: ups[:2], RackPower: rp})

				var full planOutcome
				for f := range topo.UPSes {
					out := power.SetOf(power.UPSID(f))
					rp, ups = snapshot(topo, racks, 0.86+0.03*float64(si%3), out, rng)
					in := PlanInput{UPSPower: ups, RackPower: rp, Inactive: inactiveMap(out, len(ups)), Buffer: buffer}
					full = check(fmt.Sprintf("UPS %d out", f), -1, in)
					if len(full.actions) < 8 || full.insufficient {
						t.Fatalf("fixture: UPS %d out plans %d actions, insufficient=%v", f, len(full.actions), full.insufficient)
					}
					for _, polls := range []int{0, 1, 5} {
						if got := check(fmt.Sprintf("UPS %d out, budget of %d iterations", f, polls), polls, in); len(got.actions) != polls {
							t.Fatalf("fixture: budget of %d iterations planned %d actions", polls, len(got.actions))
						}
					}

					// Multi-round planning: part of the first plan already
					// enforced, then entries that must not count (false, or
					// naming no managed rack), then every rack acted on.
					in.Acted = map[string]bool{"no-such-rack": true}
					for i, a := range full.actions {
						in.Acted[a.Rack] = i%2 == 0
					}
					check(fmt.Sprintf("UPS %d out, half the plan acted", f), -1, in)
					check(fmt.Sprintf("UPS %d out, half the plan acted, budget of 2 iterations", f), 2, in)
					for _, r := range racks {
						in.Acted[r.ID] = true
					}
					if got := check(fmt.Sprintf("UPS %d out, everything acted", f), -1, in); len(got.actions) != 0 || !got.insufficient {
						t.Fatalf("fixture: everything acted still plans %d actions", len(got.actions))
					}

					// Racks without a reading plan at their allocation.
					in.Acted = nil
					for i, r := range racks {
						if i%3 == 0 {
							delete(in.RackPower, r.ID)
						}
					}
					check(fmt.Sprintf("UPS %d out, a third of the readings missing", f), -1, in)
					in.RackPower = nil
					check(fmt.Sprintf("UPS %d out, no readings", f), -1, in)
				}

				out := power.SetOf(0, 1)
				rp, ups = snapshot(topo, racks, 0.6, out, rng)
				check("two UPSes out", -1, PlanInput{UPSPower: ups, RackPower: rp, Inactive: inactiveMap(out, len(ups))})

				// Overdraw beyond everything shaveable: the plan runs every
				// queue dry and reports insufficient.
				for u := range ups {
					ups[u] = 3 * power.MW
				}
				if got := check("exhausted", -1, PlanInput{UPSPower: ups, RackPower: rp, Buffer: buffer}); !got.insufficient || got.err != nil {
					t.Fatalf("fixture: 3 MW on every UPS is not insufficient (err %v)", got.err)
				}
			}
		})
	}
}

// fuzzPlanInput decodes a byte string into a small planning problem on
// the 4N/3 test room: a header (scenario, inactive mask, buffer, budget,
// four UPS readings) and then four bytes a rack, for at most 24 racks in
// at most 5 workloads. Categories (one value in four is outside the
// enumeration), priorities, pairs, powers, missing readings and acted bits
// all come from the input; IDs are a permutation of the rack index so that
// neither input order nor priority order is ID order.
func fuzzPlanInput(topo *power.Topology, data []byte) (in PlanInput, polls int, ok bool) {
	const header = 8
	if len(data) < header {
		return in, 0, false
	}
	scenarios := append(impact.Figure11Scenarios(), impact.Default())
	in = PlanInput{
		Topo:      topo,
		Scenario:  scenarios[int(data[0])%len(scenarios)],
		Inactive:  inactiveMap(power.UPSSet(data[1]&0xf), len(topo.UPSes)),
		Buffer:    power.Watts(data[2]%8) * power.KW,
		RackPower: map[string]power.Watts{},
		Acted:     map[string]bool{},
	}
	polls = int(data[3]%16) - 1 // −1: the budget never runs out
	for _, b := range data[4:header] {
		in.UPSPower = append(in.UPSPower, power.Watts(b)*power.KW)
	}
	for i, d := 0, data[header:]; len(d) >= 4 && i < 24; i, d = i+1, d[4:] {
		r := ManagedRack{
			ID:        fmt.Sprintf("r%02d", (i*7)%24),
			Workload:  fmt.Sprintf("w%d", d[0]&7%5),
			Category:  workload.Category(d[0] >> 3 & 3),
			Priority:  int(d[0] >> 5 & 3),
			Pair:      power.PDUPairID(int(d[1]>>5) % len(topo.Pairs)),
			Allocated: power.Watts(1+d[1]&31) * power.KW,
		}
		r.FlexPower = r.Allocated * power.Watts(d[2]&7) / 8
		if d[2]&0x80 == 0 {
			in.RackPower[r.ID] = r.Allocated * power.Watts(d[3]) / 128
		}
		if d[0]&0x80 != 0 {
			in.Acted[r.ID] = true
		}
		in.Racks = append(in.Racks, r)
	}
	return in, polls, true
}

// FuzzPlanMatchesReference holds every form of Algorithm 1 to the
// from-scratch reference on small adversarial rooms: few racks and coarse
// powers make impact and recovered-power ties — the tie-break chain down to
// the rack ID — the common case, which an emulation-sized room rarely hits.
func FuzzPlanMatchesReference(f *testing.F) {
	// Extreme-1 with UPS 0 out and identical software-redundant racks in two
	// workloads: every pick is decided by the rack ID. The named seeds are
	// under testdata/fuzz.
	f.Add([]byte{0, 1, 1, 0, 0, 130, 130, 130,
		0, 9, 0, 128, 1, 41, 0, 128, 0, 73, 0, 128, 1, 105, 0, 128, 0, 137, 0, 128, 1, 169, 0, 128})
	topo := room4N3(f, 100*power.KW)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, polls, ok := fuzzPlanInput(topo, data)
		if !ok {
			return
		}
		// Every form plans twice: first with nothing acted, no budget and
		// 255 kW on every UPS, which runs every queue dry, then the input
		// itself over whatever that left behind.
		dry := in
		dry.Acted, dry.UPSPower = nil, []power.Watts{255 * power.KW, 255 * power.KW, 255 * power.KW, 255 * power.KW}
		forms := planForms(topo, in.Racks, in.Scenario)
		for _, c := range []struct {
			in    PlanInput
			polls int
		}{{dry, -1}, {in, polls}} {
			a, ins, err := referencePlan(expiringCtx(c.polls), c.in)
			want := planOutcome{a, ins, err}
			for form, plan := range forms {
				if d := plan(expiringCtx(c.polls), c.in).diff(want); d != "" {
					t.Fatalf("%s: %s", form, d)
				}
			}
		}
	})
}

// TestPlanPreparedAllocFree: on the room the slo package's BenchmarkProbe
// audits (three 30 kW racks a pair, every failover far over capacity), a
// warmed Planner planning into the buffer its last plan returned allocates
// nothing. (Plan appends, so it cannot carry //flex:hotpath; this pins it.)
func TestPlanPreparedAllocFree(t *testing.T) {
	topo := room4N3(t, 100*power.KW)
	racks := testRacks(topo)
	for i := range racks {
		racks[i].Allocated = 30 * power.KW
		if racks[i].FlexPower > 0 {
			racks[i].FlexPower = 25 * power.KW
		}
	}
	load := power.NewPairLoad(topo)
	for _, r := range racks {
		load[r.Pair] += r.Allocated
	}
	in := PlanInput{
		UPSPower:  topo.FailoverLoads(load, 0),
		RackPower: rackPowers(racks),
		Inactive:  map[power.UPSID]bool{0: true},
		Buffer:    power.KW,
	}
	p := NewPlanner(topo, racks, impact.Realistic1())
	ctx := context.Background()
	buf, _, err := p.Plan(ctx, in, nil)
	if err != nil || len(buf) == 0 {
		t.Fatalf("fixture: %d actions, err %v", len(buf), err)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _, _ = p.Plan(ctx, in, buf) }); allocs != 0 {
		t.Fatalf("a warmed Planner.Plan allocates %v times a plan, want 0", allocs)
	}
}

// BenchmarkPlan times Algorithm 1 on an emulation-sized room with UPS 0
// out at 86 % utilization, in both forms: PlanContext prepares the 275 racks
// and plans, every call; a held Planner only plans.
func BenchmarkPlan(b *testing.B) {
	topo := room4N3(b, 1.2*power.MW)
	rng := rand.New(rand.NewSource(19))
	racks := emulationRacks(topo, rng)
	out := power.SetOf(0)
	rackPower, ups := snapshot(topo, racks, 0.86, out, rng)
	in := PlanInput{
		Topo: topo, Racks: racks, Scenario: impact.Realistic1(),
		UPSPower: ups, RackPower: rackPower, Inactive: inactiveMap(out, len(ups)),
		Buffer: DefaultBuffer(topo),
	}
	ctx := context.Background()
	var actions []PlannedAction
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			actions, _, _ = PlanContext(ctx, in)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		p := NewPlanner(topo, racks, in.Scenario)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			actions, _, _ = p.Plan(ctx, in, actions)
		}
	})
	if len(actions) == 0 {
		b.Fatal("fixture: nothing planned")
	}
}
