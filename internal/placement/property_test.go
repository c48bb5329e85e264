package placement

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flex/internal/power"
	"flex/internal/workload"
)

// randomDeployment builds a valid deployment from fuzz inputs.
func randomDeployment(id int, catRaw, racksRaw uint8, powRaw uint16, flexRaw uint8) workload.Deployment {
	cat := workload.Categories[int(catRaw)%3]
	racks := 1 + int(racksRaw)%20
	pow := power.Watts(5+int(powRaw)%15) * power.KW
	flex := 0.0
	switch cat {
	case workload.NonRedundantCapable:
		flex = 0.75 + float64(flexRaw%10)/100
	case workload.NonRedundantNonCapable:
		flex = 1
	}
	return workload.Deployment{
		ID: id, Workload: "w" + cat.String(), Category: cat,
		Racks: racks, PowerPerRack: pow, FlexPowerFraction: flex,
	}
}

// Property: place followed by remove returns the state to exactly its
// previous bookkeeping, for arbitrary valid deployments and pairs.
func TestPlaceRemoveRoundtripProperty(t *testing.T) {
	room := PaperRoom()
	f := func(catRaw, racksRaw uint8, powRaw uint16, flexRaw, pairRaw uint8) bool {
		s := newState(room)
		// Pre-load the state with a couple of fixed deployments so the
		// roundtrip is tested against a non-empty baseline.
		base1 := randomDeployment(0, 0, 10, 14, 0)
		base2 := randomDeployment(1, 1, 10, 14, 5)
		s.place(base1, 0)
		s.place(base2, 7)

		d := randomDeployment(2, catRaw, racksRaw, powRaw, flexRaw)
		pid := power.PDUPairID(int(pairRaw) % len(room.Topo.Pairs))
		if !s.canPlace(d, pid) {
			return true // nothing to verify
		}
		before := snapshotState(s)
		s.place(d, pid)
		s.remove(d, pid)
		after := snapshotState(s)
		return statesEqual(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type stateSnapshot struct {
	slots       []int
	normal      []power.Watts
	failCap     [][]power.Watts
	throttleRec [][]power.Watts
	placedPow   power.Watts
	capPow      power.Watts
	placed      int
}

func snapshotState(s *state) stateSnapshot {
	snap := stateSnapshot{
		slots:     append([]int(nil), s.occ.slotsLeft...),
		placedPow: s.occ.placedPow,
		capPow:    s.occ.placedCapPow,
		placed:    len(s.placed),
	}
	n := len(s.room.Topo.UPSes)
	for f := 0; f < n; f++ {
		snap.normal = append(snap.normal, s.occ.safety.Normal(power.UPSID(f)))
		var fail, throttle []power.Watts
		for u := 0; u < n; u++ {
			fail = append(fail, s.occ.safety.Failover(power.UPSID(f), power.UPSID(u)))
			throttle = append(throttle, s.throttle.Failover(power.UPSID(f), power.UPSID(u)))
		}
		snap.failCap = append(snap.failCap, fail)
		snap.throttleRec = append(snap.throttleRec, throttle)
	}
	return snap
}

func statesEqual(a, b stateSnapshot) bool {
	if a.placed != b.placed || math.Abs(float64(a.placedPow-b.placedPow)) > 1e-6 ||
		math.Abs(float64(a.capPow-b.capPow)) > 1e-6 {
		return false
	}
	for i := range a.slots {
		if a.slots[i] != b.slots[i] {
			return false
		}
	}
	for i := range a.normal {
		if math.Abs(float64(a.normal[i]-b.normal[i])) > 1e-6 {
			return false
		}
	}
	for i := range a.failCap {
		for j := range a.failCap[i] {
			if math.Abs(float64(a.failCap[i][j]-b.failCap[i][j])) > 1e-6 {
				return false
			}
			if math.Abs(float64(a.throttleRec[i][j]-b.throttleRec[i][j])) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// Property: every placement any policy produces over random traces is
// safe (Validate passes) and its metrics are within range.
func TestRandomTracePlacementSafetyProperty(t *testing.T) {
	room := PaperRoom()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultTraceConfig(room.Topo.ProvisionedPower())
		// Randomize the mix a little while keeping it normalized.
		sr := 0.05 + rng.Float64()*0.2
		nc := 0.1 + rng.Float64()*0.3
		cfg.CategoryShares = [3]float64{sr, 1 - sr - nc, nc}
		trace, err := workload.GenerateTrace(cfg, rng)
		if err != nil {
			return false
		}
		for _, pol := range []Policy{Random{Seed: seed}, BalancedRoundRobin{}} {
			pl, err := pol.Place(context.Background(), room, trace)
			if err != nil {
				return false
			}
			if err := pl.Validate(); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if f := pl.StrandedFraction(); f < 0 || f > 1 {
				return false
			}
			if im := pl.ThrottlingImbalance(); im < 0 || im > 1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleavedPairOrder is a permutation of all pairs and cycles
// across UPS combinations.
func TestInterleavedPairOrderProperty(t *testing.T) {
	for _, combos := range []int{1, 2, 3, 5} {
		topo, err := power.NewRoom(power.RoomConfig{
			Design: power.Redundancy{X: 4, Y: 3}, UPSCapacity: power.MW,
			PairsPerCombination: combos,
		})
		if err != nil {
			t.Fatal(err)
		}
		order := interleavedPairOrder(topo)
		if len(order) != len(topo.Pairs) {
			t.Fatalf("order length %d, want %d", len(order), len(topo.Pairs))
		}
		seen := map[power.PDUPairID]bool{}
		for _, pid := range order {
			if seen[pid] {
				t.Fatalf("duplicate pair %d in order", pid)
			}
			seen[pid] = true
		}
		// The first 6 entries cover all 6 UPS combinations.
		if combos >= 1 {
			comboSeen := map[[2]power.UPSID]bool{}
			for _, pid := range order[:6] {
				comboSeen[topo.Pairs[pid].UPSes] = true
			}
			if len(comboSeen) != 6 {
				t.Fatalf("first rotation covers %d combos, want 6", len(comboSeen))
			}
		}
	}
}
