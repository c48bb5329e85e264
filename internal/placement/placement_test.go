package placement

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"flex/internal/power"
	"flex/internal/workload"
)

func testTrace(t *testing.T, provisioned power.Watts, seed int64) []workload.Deployment {
	t.Helper()
	cfg := workload.DefaultTraceConfig(provisioned)
	trace, err := workload.GenerateTrace(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func allPolicies() []Policy {
	return []Policy{
		Random{Seed: 1},
		RoundRobin{},
		BalancedRoundRobin{},
		FirstFit{},
		fastFlexOffline(0.33, "Flex-Offline-Short"),
		fastFlexOffline(0.66, "Flex-Offline-Long"),
		fastFlexOffline(10, "Flex-Offline-Oracle"),
	}
}

// fastFlexOffline keeps unit-test runtime low and deterministic with a
// small branch-and-bound node budget.
func fastFlexOffline(batch float64, label string) FlexOffline {
	return FlexOffline{BatchFraction: batch, MaxNodes: 200, Label: label}
}

func TestPaperRoomShape(t *testing.T) {
	room := PaperRoom()
	if got := room.Topo.ProvisionedPower(); got != 9.6*power.MW {
		t.Fatalf("provisioned = %v, want 9.6MW", got)
	}
	if len(room.Topo.Pairs) != 18 {
		t.Fatalf("pairs = %d, want 18", len(room.Topo.Pairs))
	}
	if room.TotalSlots() != 18*60 {
		t.Fatalf("slots = %d, want 1080", room.TotalSlots())
	}
}

func TestEmulationRoomShape(t *testing.T) {
	room := EmulationRoom()
	if got := room.Topo.ProvisionedPower(); got != 4.8*power.MW {
		t.Fatalf("provisioned = %v, want 4.8MW", got)
	}
	if room.TotalSlots() != 360 {
		t.Fatalf("slots = %d, want 360", room.TotalSlots())
	}
}

func TestNewRoomRejectsBadSlots(t *testing.T) {
	if _, err := NewRoom(PaperRoom().Topo, 0); err == nil {
		t.Fatal("expected error")
	}
}

// Safety: every policy must produce placements that pass full validation —
// this is the paper's core invariant (Eq. 1/2/4 hold even at 100%
// utilization for every UPS failure).
func TestAllPoliciesProduceSafePlacements(t *testing.T) {
	room := PaperRoom()
	trace := testTrace(t, room.Topo.ProvisionedPower(), 7)
	for _, pol := range allPolicies() {
		pl, err := pol.Place(context.Background(), room, trace)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: unsafe placement: %v", pol.Name(), err)
		}
		if len(pl.Placed()) == 0 {
			t.Errorf("%s: placed nothing", pol.Name())
		}
	}
}

// Safety under cascade: a safe placement, after maximal shaving, must not
// cascade for any initial UPS failure.
func TestSafePlacementPreventsCascade(t *testing.T) {
	room := PaperRoom()
	trace := testTrace(t, room.Topo.ProvisionedPower(), 3)
	pl, err := BalancedRoundRobin{}.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	capLoad := pl.CapPairLoad()
	for f := range room.Topo.UPSes {
		out := room.Topo.SimulateCascade(capLoad, power.UPSID(f), power.EndOfLifeTripCurve, time.Hour)
		if out.Outage {
			t.Fatalf("maximally shaved placement cascades on failure of UPS %d", f)
		}
	}
}

func TestFlexOfflineBeatsNaivePolicies(t *testing.T) {
	room := PaperRoom()
	// Average over a few shuffled traces like the paper's 10 variations.
	base := testTrace(t, room.Topo.ProvisionedPower(), 11)
	var randomStranded, flexStranded float64
	n := 3
	for i := 0; i < n; i++ {
		tr := workload.Shuffle(base, rand.New(rand.NewSource(int64(100+i))))
		rp, err := Random{Seed: int64(i)}.Place(context.Background(), room, tr)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fastFlexOffline(0.33, "short").Place(context.Background(), room, tr)
		if err != nil {
			t.Fatal(err)
		}
		randomStranded += rp.StrandedFraction()
		flexStranded += fp.StrandedFraction()
	}
	randomStranded /= float64(n)
	flexStranded /= float64(n)
	if flexStranded > randomStranded+1e-9 {
		t.Errorf("Flex-Offline stranded %.4f should be <= Random %.4f", flexStranded, randomStranded)
	}
	// The paper reports <4–5% median stranded power for Flex-Offline.
	if flexStranded > 0.08 {
		t.Errorf("Flex-Offline stranded %.4f unexpectedly high", flexStranded)
	}
}

func TestStrandedPowerEquation(t *testing.T) {
	room := PaperRoom()
	trace := testTrace(t, room.Topo.ProvisionedPower(), 5)
	pl, err := FirstFit{}.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	placed := pl.PairLoad().Total()
	want := room.Topo.ProvisionedPower() - placed
	if math.Abs(float64(pl.StrandedPower()-want)) > 1 {
		t.Fatalf("StrandedPower = %v, want %v", pl.StrandedPower(), want)
	}
	frac := pl.StrandedFraction()
	if frac < 0 || frac > 1 {
		t.Fatalf("StrandedFraction = %v", frac)
	}
}

func TestThrottlingImbalanceProperties(t *testing.T) {
	room := PaperRoom()
	trace := testTrace(t, room.Topo.ProvisionedPower(), 9)
	for _, pol := range []Policy{Random{Seed: 4}, BalancedRoundRobin{}} {
		pl, err := pol.Place(context.Background(), room, trace)
		if err != nil {
			t.Fatal(err)
		}
		im := pl.ThrottlingImbalance()
		if im < 0 || im > 1 {
			t.Errorf("%s: imbalance %v outside [0,1]", pol.Name(), im)
		}
	}
	// Empty placement → zero imbalance.
	empty := &Placement{Room: room, Assignments: map[int]power.PDUPairID{}}
	if empty.ThrottlingImbalance() != 0 {
		t.Error("empty placement should have zero imbalance")
	}
}

func TestBalancedRoundRobinImprovesImbalanceOverFirstFit(t *testing.T) {
	room := PaperRoom()
	base := testTrace(t, room.Topo.ProvisionedPower(), 21)
	var ffSum, brrSum float64
	n := 3
	for i := 0; i < n; i++ {
		tr := workload.Shuffle(base, rand.New(rand.NewSource(int64(i))))
		ff, err := FirstFit{}.Place(context.Background(), room, tr)
		if err != nil {
			t.Fatal(err)
		}
		brr, err := BalancedRoundRobin{}.Place(context.Background(), room, tr)
		if err != nil {
			t.Fatal(err)
		}
		ffSum += ff.ThrottlingImbalance()
		brrSum += brr.ThrottlingImbalance()
	}
	if brrSum > ffSum {
		t.Errorf("BalancedRR mean imbalance %.4f should be <= FirstFit %.4f", brrSum/3, ffSum/3)
	}
}

func TestPlacedUnplacedPartition(t *testing.T) {
	room := PaperRoom()
	trace := testTrace(t, room.Topo.ProvisionedPower(), 13)
	pl, err := BalancedRoundRobin{}.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	placed, unplaced := pl.Placed(), pl.Unplaced()
	if len(placed)+len(unplaced) != len(trace) {
		t.Fatalf("partition broken: %d + %d != %d", len(placed), len(unplaced), len(trace))
	}
	// Demand is 115% of provisioned, so some requests must be rejected.
	if len(unplaced) == 0 {
		t.Error("expected rejected deployments at 115% demand")
	}
}

func TestFlexOfflineRejectsBadBatchFraction(t *testing.T) {
	room := PaperRoom()
	if _, err := (FlexOffline{}).Place(context.Background(), room, nil); err == nil {
		t.Fatal("expected error for zero batch fraction")
	}
}

func TestFlexOfflineNames(t *testing.T) {
	if FlexOfflineShort().Name() != "Flex-Offline-Short" {
		t.Error("short name")
	}
	if FlexOfflineLong().Name() != "Flex-Offline-Long" {
		t.Error("long name")
	}
	if FlexOfflineOracle().Name() != "Flex-Offline-Oracle" {
		t.Error("oracle name")
	}
	if (FlexOffline{BatchFraction: 0.5}).Name() != "Flex-Offline(0.50)" {
		t.Error("default name")
	}
}

func TestCombosOfGroupsPairs(t *testing.T) {
	room := PaperRoom()
	combos := CombosOf(room.Topo)
	if len(combos) != 6 {
		t.Fatalf("combos = %d, want 6", len(combos))
	}
	for _, c := range combos {
		if len(c.Pairs) != 3 {
			t.Errorf("combo %v has %d pairs, want 3", c.UPSes, len(c.Pairs))
		}
	}
}

func TestCoolingConstraintLimitsPlacement(t *testing.T) {
	room := PaperRoom()
	// Permit only ~2MW of cooling.
	room.CoolingCFM = 2e6
	room.CFMPerWatt = 1
	trace := testTrace(t, room.Topo.ProvisionedPower(), 23)
	pl, err := BalancedRoundRobin{}.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatalf("cooling-constrained placement invalid: %v", err)
	}
	if got := pl.PairLoad().Total(); got > 2*power.MW+20*17.2*power.KW {
		t.Fatalf("placed %v exceeds cooling budget", got)
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	room := PaperRoom()
	d := workload.Deployment{ID: 0, Workload: "w", Category: workload.NonRedundantNonCapable,
		Racks: 1000, PowerPerRack: 14.4 * power.KW, FlexPowerFraction: 1}
	pl := &Placement{
		Room:        room,
		Deployments: []workload.Deployment{d},
		Assignments: map[int]power.PDUPairID{0: 0},
	}
	if err := pl.Validate(); err == nil {
		t.Fatal("expected space violation")
	}
	// Unknown pair.
	pl.Assignments[0] = power.PDUPairID(99)
	if err := pl.Validate(); err == nil {
		t.Fatal("expected unknown-pair violation")
	}
	// Failover violation: a non-cap-able deployment filling a whole pair
	// with 2.8MW — a partner UPS failure transfers all of it onto one
	// 2.4MW UPS and nothing can be shaved.
	d2 := workload.Deployment{ID: 0, Workload: "w", Category: workload.NonRedundantNonCapable,
		Racks: 40, PowerPerRack: 70 * power.KW, FlexPowerFraction: 1}
	pl2 := &Placement{
		Room:        room,
		Deployments: []workload.Deployment{d2},
		Assignments: map[int]power.PDUPairID{0: 0},
	}
	if err := pl2.Validate(); err == nil {
		t.Fatal("expected failover violation: 2.4MW non-shaveable on one pair")
	}
}
