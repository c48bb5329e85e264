package flex

// The offline/online contract, fuzzed: a placement that satisfies Eq. 1/2/4
// (placement.Placement.Validate) must leave Algorithm 1
// (controller.Planner.Plan) enough shave-able power under any single UPS
// failure, at any rack draw up to the allocation.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/placement"
	"flex/internal/placement/online"
	"flex/internal/power"
	"flex/internal/sim"
	"flex/internal/workload"
)

// contractCase is one input of the contract: a room, a placement in it that
// passes Validate, an impact scenario, each rack's draw and the UPS that
// fails.
type contractCase struct {
	pl       *placement.Placement
	scenario impact.Scenario
	racks    []sim.Rack
	draw     map[string]power.Watts
	failed   power.UPSID
}

// maxContractDeployments bounds how many deployments decodeContract reads.
const maxContractDeployments = 1024

// decodeContract decodes data into a contractCase, reading one byte at a
// time, each past the end of data as zero:
//
//   - the room: X = 2 + b%5 UPSes with Y = 1 + b%(X−1), each of capacity
//     (1 + b) × 100 kW; 1 + b%3 PDU-pairs per UPS combination of 1 + b rack
//     slots each; reserve utilization (b%201)/200;
//   - the impact scenario, Figure11Scenarios()[b%4], and the failed UPS, b%X;
//   - the deployment count, two bytes big-endian, at most
//     maxContractDeployments; then per deployment: its workload "w<b>", its
//     category b%3, 1 + b%64 racks of (1 + two bytes big-endian) × 100 W
//     each, a flex fraction byte — (1 + b%99)/100 when cap-able, ignored
//     otherwise — and its PDU-pair, b modulo the pair count;
//   - per rack, in sim.ExpandRacks order, its draw: (255 − b)/255 of its
//     allocation, so that missing bytes draw it in full.
//
// ok is false when the placement fails Validate: the contract covers safe
// placements only.
func decodeContract(data []byte) (c contractCase, ok bool) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	x := 2 + next()%5
	design := power.Redundancy{X: x, Y: 1 + next()%(x-1)}
	capacity := power.Watts(100e3 * float64(1+next()))
	topo, err := power.NewRoom(power.RoomConfig{Design: design, UPSCapacity: capacity, PairsPerCombination: 1 + next()%3})
	if err != nil {
		panic(err) // every decoded configuration is valid
	}
	slots := 1 + next()
	room, err := placement.PartialReserveRoom(topo, slots, float64(next()%201)/200)
	if err != nil {
		panic(err)
	}
	c.scenario = impact.Figure11Scenarios()[next()%4]
	c.failed = power.UPSID(next() % x)
	n := min(next()<<8|next(), maxContractDeployments)
	c.pl = &placement.Placement{Room: room, Assignments: make(map[int]power.PDUPairID, n)}
	for id := 0; id < n; id++ {
		d := workload.Deployment{
			ID:       id,
			Workload: fmt.Sprintf("w%d", next()),
			Category: workload.Category(next() % 3),
			Racks:    1 + next()%64,
		}
		d.PowerPerRack = power.Watts(100 * float64(1+(next()<<8|next())))
		switch flex := float64(1+next()%99) / 100; d.Category {
		case workload.NonRedundantCapable:
			d.FlexPowerFraction = flex
		case workload.NonRedundantNonCapable:
			d.FlexPowerFraction = 1
		}
		c.pl.Deployments = append(c.pl.Deployments, d)
		c.pl.Assignments[id] = power.PDUPairID(next() % len(topo.Pairs))
	}
	if c.pl.Validate() != nil {
		return c, false
	}
	c.racks = sim.ExpandRacks(c.pl)
	c.draw = make(map[string]power.Watts, len(c.racks))
	for _, r := range c.racks {
		c.draw[r.ID] = power.Watts(float64(r.Allocated) * float64(255-next()) / 255)
	}
	return c, true
}

// encodeContract is decodeContract's inverse for a placement whose room and
// deployments lie on its grid: the bytes decode to pl's placed deployments,
// in order and renumbered, on their pairs, with every rack drawing its full
// allocation.
func encodeContract(pl *placement.Placement, scenario int, failed power.UPSID) ([]byte, error) {
	room, topo := pl.Room, pl.Room.Topo
	x, y := topo.Design.X, topo.Design.Y
	units := float64(topo.UPSes[0].Capacity) / 100e3
	ppc := len(topo.Pairs) / (x * (x - 1) / 2)
	reserve := room.ReserveUtilization * 200
	if x < 2 || x > 6 || units != math.Round(units) || units < 1 || units > 256 || ppc < 1 || ppc > 3 ||
		room.SlotsPerPair[0] < 1 || room.SlotsPerPair[0] > 256 || reserve != math.Round(reserve) {
		return nil, fmt.Errorf("room off the decoder's grid")
	}
	data := []byte{byte(x - 2), byte(y - 1), byte(units - 1), byte(ppc - 1), byte(room.SlotsPerPair[0] - 1), byte(reserve), byte(scenario), byte(failed)}
	placed := pl.Placed()
	if len(placed) > maxContractDeployments {
		return nil, fmt.Errorf("%d deployments, the decoder reads at most %d", len(placed), maxContractDeployments)
	}
	data = append(data, byte(len(placed)>>8), byte(len(placed)))
	names := map[string]int{}
	for _, d := range placed {
		if _, ok := names[d.Workload]; !ok {
			names[d.Workload] = len(names)
		}
		hundreds := float64(d.PowerPerRack) / 100
		flex := math.Round(d.FlexPowerFraction * 100)
		if len(names) > 256 || d.Racks > 64 || hundreds != math.Round(hundreds) || hundreds < 1 || hundreds > 1<<16 ||
			(d.Category == workload.NonRedundantCapable && d.FlexPowerFraction != flex/100) {
			return nil, fmt.Errorf("deployment %v off the decoder's grid", d)
		}
		p := int(hundreds) - 1
		data = append(data, byte(names[d.Workload]), byte(d.Category), byte(d.Racks-1), byte(p>>8), byte(p), byte(max(flex-1, 0)), byte(pl.Assignments[d.ID]))
	}
	return data, nil
}

// onGrid rounds a trace onto decodeContract's grid: rack powers to 100 W,
// cap-able flex fractions to hundredths.
func onGrid(trace []workload.Deployment) []workload.Deployment {
	out := append([]workload.Deployment(nil), trace...)
	for i := range out {
		out[i].PowerPerRack = power.Watts(100 * math.Round(float64(out[i].PowerPerRack)/100))
		if out[i].Category == workload.NonRedundantCapable {
			out[i].FlexPowerFraction = math.Round(out[i].FlexPowerFraction*100) / 100
		}
	}
	return out
}

// contractSeeds are the placements Flex-Offline-Short and the online
// admitter make of the paper room and of a partial-reserve copy of it, one
// seed per policy, room and failed UPS, every rack at its allocation: each
// must validate, and decode to the policy's own pair loads.
func contractSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	paper := placement.PaperRoom()
	partial, err := placement.PartialReserveRoom(paper.Topo, 60, 0.42)
	if err != nil {
		tb.Fatal(err)
	}
	trace, err := workload.GenerateTrace(workload.DefaultTraceConfig(paper.Topo.ProvisionedPower()), rand.New(rand.NewSource(5)))
	if err != nil {
		tb.Fatal(err)
	}
	trace = onGrid(trace)
	short := placement.FlexOfflineShort()
	short.MaxNodes = 150
	var seeds [][]byte
	for _, room := range []*placement.Room{paper, partial} {
		for si, pol := range []placement.Policy{short, online.Online{Config: online.Config{SyncResolve: true, Seed: 1}}} {
			pl, err := pol.Place(context.Background(), room, trace)
			if err != nil {
				tb.Fatal(err)
			}
			if err := pl.Validate(); err != nil {
				tb.Fatalf("%s: %v", pol.Name(), err)
			}
			for f := range room.Topo.UPSes {
				data, err := encodeContract(pl, (si+f)%4, power.UPSID(f))
				if err != nil {
					tb.Fatalf("%s: %v", pol.Name(), err)
				}
				c, ok := decodeContract(data)
				if !ok {
					tb.Fatalf("%s: the seed does not decode to a valid placement", pol.Name())
				}
				got, want := c.pl.PairLoad(), pl.PairLoad()
				gotCap, wantCap := c.pl.CapPairLoad(), pl.CapPairLoad()
				for pid := range want {
					if got[pid] != want[pid] || gotCap[pid] != wantCap[pid] {
						tb.Fatalf("%s pair %d: the seed decodes to %v (%v shaved), the policy placed %v (%v)",
							pol.Name(), pid, got[pid], gotCap[pid], want[pid], wantCap[pid])
					}
				}
				seeds = append(seeds, data)
			}
		}
	}
	return seeds
}

// checkContract runs Algorithm 1 on c's failure and asserts the contract:
// (i) the plan is not insufficient; (ii) with shut-down racks at 0 and
// throttled racks at most their cap target, the load flow leaves every
// surviving UPS within its capacity; (iii) every action is the one its
// rack's category defines, so no rack outside the shave-able categories
// is touched.
func checkContract(t *testing.T, c contractCase) {
	t.Helper()
	topo := c.pl.Room.Topo
	load := sim.PairLoadFromRacks(topo, c.racks, c.draw)
	actions, insufficient, err := controller.PlanContext(context.Background(), controller.PlanInput{
		Topo:      topo,
		Racks:     sim.ManagedRacks(c.racks),
		UPSPower:  topo.FailoverLoads(load, c.failed),
		RackPower: c.draw,
		Inactive:  map[power.UPSID]bool{c.failed: true},
		Scenario:  c.scenario,
	})
	if err != nil {
		t.Fatal(err)
	}
	if insufficient {
		t.Fatalf("failure of UPS %d under %s: Algorithm 1 insufficient after %d actions on a placement Validate accepts",
			c.failed, c.scenario.Name, len(actions))
	}
	byID := make(map[string]sim.Rack, len(c.racks))
	for _, r := range c.racks {
		byID[r.ID] = r
	}
	after := make(map[string]power.Watts, len(c.draw))
	for id, w := range c.draw {
		after[id] = w
	}
	for _, a := range actions {
		r := byID[a.Rack]
		switch {
		case a.Kind == controller.Shutdown && r.Category == workload.SoftwareRedundant:
			after[r.ID] = 0
		case a.Kind == controller.Throttle && r.Category == workload.NonRedundantCapable && a.CapTarget == r.FlexPower:
			after[r.ID] = min(after[r.ID], a.CapTarget)
		default:
			t.Fatalf("action %v %s (cap %v) on a %s rack of flex power %v", a.Kind, a.Rack, a.CapTarget, r.Category, r.FlexPower)
		}
	}
	loads, _ := topo.LoadFlow(sim.PairLoadFromRacks(topo, c.racks, after), power.SetOf(c.failed))
	for u, w := range loads {
		if power.UPSID(u) != c.failed && w > topo.UPSes[u].Capacity+power.CapacityTolerance {
			t.Fatalf("failure of UPS %d: after %d actions UPS %d carries %v of %v", c.failed, len(actions), u, w, topo.UPSes[u].Capacity)
		}
	}
}

// FuzzContractHolds is the offline/online contract over decoded rooms,
// placements, scenarios, draws and failures; see decodeContract and
// checkContract.
func FuzzContractHolds(f *testing.F) {
	for _, seed := range contractSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	// A 2N/1 room of 100 kW UPSes and one pair: a non-cap-able 99.9 kW rack
	// and 101 cap-able 100 W racks of 1 W flex power. Eq. 4 puts 100.001 kW
	// on the survivor, within CapacityTolerance of its capacity, and at full
	// draw throttling every cap-able rack leaves it there: Algorithm 1 must
	// not call that insufficient.
	f.Add([]byte{0, 0, 0, 0, 255, 200, 0, 0, 0, 3,
		0, 2, 0, 3, 230, 0, 0,
		1, 1, 63, 0, 0, 0, 0,
		1, 1, 36, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeContract(data); ok {
			checkContract(t, c)
		}
	})
}
