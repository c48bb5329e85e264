package flex

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// compares the shipped design against a degraded variant and prints the
// delta, once.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"flex/internal/cooling"
	"flex/internal/impact"
	"flex/internal/power"
	"flex/internal/sim"
	"flex/internal/stats"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// ---------------------------------------------------------------------------
// Batching horizon + ILP vs greedy-only placement.

func BenchmarkAblation_ILPvsGreedy(b *testing.B) {
	first := printHeader("Ablation: ILP vs greedy",
		"Flex-Offline with full branch-and-bound vs root-heuristic-only vs no balance refinement")
	for i := 0; i < b.N; i++ {
		room := PaperRoom()
		base, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 1)
		if err != nil {
			b.Fatal(err)
		}
		variants := []struct {
			name string
			pol  FlexOffline
		}{
			{"full (800 nodes)", FlexOffline{BatchFraction: 0.66, MaxNodes: 800}},
			{"root only (1 node)", FlexOffline{BatchFraction: 0.66, MaxNodes: 1}},
			{"no balance refinement", FlexOffline{BatchFraction: 0.66, MaxNodes: 800, SkipBalanceRefinement: true}},
			{"no diversity reserve", FlexOffline{BatchFraction: 0.66, MaxNodes: 800, SkipDiversityReserve: true}},
		}
		for _, v := range variants {
			var stranded, imbalance []float64
			for s := int64(0); s < 5; s++ {
				tr := ShuffleTrace(base, s)
				pl, err := v.pol.Place(context.Background(), room, tr)
				if err != nil {
					b.Fatal(err)
				}
				stranded = append(stranded, pl.StrandedFraction()*100)
				imbalance = append(imbalance, pl.ThrottlingImbalance()*100)
			}
			if first {
				fmt.Printf("  %-24s stranded med %.2f%% max %.2f%%  imbalance med %.2f%%\n",
					v.name, stats.BoxOf(stranded).Median, stats.BoxOf(stranded).Max,
					stats.BoxOf(imbalance).Median)
			}
		}
		first = false
	}
}

// ---------------------------------------------------------------------------
// Impact-driven selection (Algorithm 1) vs power-greedy selection.

func BenchmarkAblation_ImpactVsPowerGreedy(b *testing.B) {
	first := printHeader("Ablation: impact-driven vs power-greedy selection",
		"workload impact incurred to shave the same failover, Realistic-1 lens")
	room := PaperRoom()
	trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 1)
	if err != nil {
		b.Fatal(err)
	}
	pol := FlexOfflineShort()
	pol.MaxNodes = 300
	pl, err := pol.Place(context.Background(), room, trace)
	if err != nil {
		b.Fatal(err)
	}
	racks := ExpandRacks(pl)
	managed := ManagedRacks(racks)
	lens := ScenarioRealistic1()

	// powerGreedy mimics a policy with no impact functions: every action
	// looks equally costly, so the tie-break (max recovered power) rules.
	powerGreedy := Scenario{
		Name: "power-greedy",
		ByCategory: map[Category]impact.Function{
			SoftwareRedundant:   impact.Zero(),
			NonRedundantCapable: impact.Zero(),
		},
	}

	score := func(sc Scenario) (worst float64, actions int) {
		rng := rand.New(rand.NewSource(7))
		for f := range room.Topo.UPSes {
			rackPower := sim.SampleRackPowers(racks, 0.84, rng)
			load := sim.PairLoadFromRacks(room.Topo, racks, rackPower)
			ups := room.Topo.FailoverLoads(load, power.UPSID(f))
			acts, _, err := PlanActionsContext(context.Background(), PlanInput{
				Topo: room.Topo, Racks: managed, UPSPower: ups,
				RackPower: rackPower,
				Inactive:  map[UPSID]bool{UPSID(f): true},
				Scenario:  sc,
			})
			if err != nil {
				b.Fatal(err)
			}
			actions += len(acts)
			// Evaluate the *true* impact of the chosen action set through
			// the Realistic-1 lens.
			affected := map[string]int{}
			total := map[string]int{}
			cat := map[string]Category{}
			for _, r := range managed {
				total[r.Workload]++
				cat[r.Workload] = r.Category
			}
			for _, a := range acts {
				affected[a.Workload]++
			}
			for w, n := range affected {
				v := lens.For(w, cat[w]).At(float64(n) / float64(total[w]))
				if v > worst {
					worst = v
				}
			}
		}
		return worst, actions
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wImpact, aImpact := score(lens)
		wGreedy, aGreedy := score(powerGreedy)
		if first {
			fmt.Printf("  impact-driven: worst workload impact %.2f over %d actions\n", wImpact, aImpact)
			fmt.Printf("  power-greedy:  worst workload impact %.2f over %d actions\n", wGreedy, aGreedy)
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// Telemetry consensus vs single meter under fault injection.

func BenchmarkAblation_MeterConsensus(b *testing.B) {
	first := printHeader("Ablation: 3-meter consensus vs single meter",
		"reading error and availability with one injected misreading/failed meter")
	for i := 0; i < b.N; i++ {
		truth := power.Watts(1.2 * power.MW)
		src := func() power.Watts { return truth }
		mech := func() power.Watts { return 60 * power.KW }
		consensus := telemetry.NewUPSLogicalMeter("UPS-1", src, mech, 1)
		single := telemetry.NewSimMeter("UPS-1/only", src, telemetry.SimMeterConfig{Noise: 0.004, Seed: 1})

		// Inject a gross misreading into one physical meter of each.
		consensus.Meters()[0].(*telemetry.SimMeter).SetOffset(0.5 * power.MW)
		single.SetOffset(0.5 * power.MW)

		now := time.Unix(0, 0)
		var consensusErr, singleErr float64
		for s := 0; s < 50; s++ {
			now = now.Add(4 * time.Second)
			cv, err := consensus.Read(now)
			if err != nil {
				b.Fatal(err)
			}
			sv, _ := single.Read(now)
			consensusErr = math.Max(consensusErr, math.Abs(float64(cv-truth))/float64(truth))
			singleErr = math.Max(singleErr, math.Abs(float64(sv-truth))/float64(truth))
		}
		if first {
			fmt.Printf("  consensus max error: %.2f%%   single-meter max error: %.2f%%\n",
				consensusErr*100, singleErr*100)
			// And hard failure: the consensus survives, the single meter
			// goes dark.
			consensus.Meters()[1].(*telemetry.SimMeter).SetFailed(true)
			if _, err := consensus.Read(now.Add(time.Second)); err != nil {
				fmt.Printf("  consensus lost quorum after a second fault (expected with 2/3 down)\n")
			} else {
				fmt.Printf("  consensus still serving after one failed + one misreading meter\n")
			}
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// Safety buffer size.

func BenchmarkAblation_SafetyBuffer(b *testing.B) {
	first := printHeader("Ablation: controller safety buffer",
		"actions taken and residual overdraws vs buffer size, with ±4% rack power mis-estimation")
	room := PaperRoom()
	trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 1)
	if err != nil {
		b.Fatal(err)
	}
	pol := FlexOfflineShort()
	pol.MaxNodes = 300
	pl, err := pol.Place(context.Background(), room, trace)
	if err != nil {
		b.Fatal(err)
	}
	racks := ExpandRacks(pl)
	managed := ManagedRacks(racks)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, buffer := range []Watts{0, 12 * KW, 24 * KW, 48 * KW} {
			rng := rand.New(rand.NewSource(5))
			actions, violations, runs := 0, 0, 0
			for f := range room.Topo.UPSes {
				for s := 0; s < 3; s++ {
					runs++
					truePower := sim.SampleRackPowers(racks, 0.84, rng)
					// The controller sees a stale/misestimated snapshot.
					seen := make(map[string]Watts, len(truePower))
					for id, p := range truePower {
						seen[id] = Watts(float64(p) * (1 + 0.04*rng.NormFloat64()))
					}
					load := sim.PairLoadFromRacks(room.Topo, racks, truePower)
					ups := room.Topo.FailoverLoads(load, power.UPSID(f))
					acts, _, err := PlanActionsContext(context.Background(), PlanInput{
						Topo: room.Topo, Racks: managed, UPSPower: ups,
						RackPower: seen,
						Inactive:  map[UPSID]bool{UPSID(f): true},
						Scenario:  ScenarioRealistic1(),
						Buffer:    buffer,
					})
					if err != nil {
						b.Fatal(err)
					}
					actions += len(acts)
					// Apply the *true* recoveries and check for residual
					// overdraw.
					est := append([]Watts(nil), ups...)
					byID := map[string]RackInstance{}
					for _, r := range racks {
						byID[r.ID] = r
					}
					for _, a := range acts {
						r := byID[a.Rack]
						var rec Watts
						if a.Kind == ActionShutdown {
							rec = truePower[r.ID]
						} else {
							rec = truePower[r.ID] - r.FlexPower
							if rec < 0 {
								rec = 0
							}
						}
						pair := room.Topo.Pairs[r.Pair]
						aU, bU := pair.UPSes[0], pair.UPSes[1]
						switch power.UPSID(f) {
						case aU:
							est[bU] -= rec
						case bU:
							est[aU] -= rec
						default:
							est[aU] -= rec / 2
							est[bU] -= rec / 2
						}
					}
					for u := range room.Topo.UPSes {
						if UPSID(u) == UPSID(f) {
							continue
						}
						if est[u] > room.Topo.UPSes[u].Capacity {
							violations++
							break
						}
					}
				}
			}
			if first {
				fmt.Printf("  buffer %-8v avg actions %.1f  residual overdraw %d/%d runs\n",
					buffer, float64(actions)/float64(runs), violations, runs)
			}
		}
		first = false
	}
}

// ---------------------------------------------------------------------------
// Redundancy designs.

func BenchmarkAblation_RedundancyDesigns(b *testing.B) {
	first := printHeader("Ablation: redundancy designs",
		"reserved power, Flex gain, and worst failover load across xN/y designs")
	for i := 0; i < b.N; i++ {
		rows := CompareDesigns()
		if first {
			for _, d := range rows {
				fmt.Printf("  %-14s reserved %5.1f%%  gain %5.1f%%  worst failover %3.0f%%  (EOL tolerance %v)\n",
					d.Name, d.ReservedFraction*100, d.ExtraServerFraction*100,
					d.WorstFailoverLoad*100, power.EndOfLifeTripCurve.Tolerance(d.WorstFailoverLoad))
			}
			first = false
		}
	}
}

// cooling0 converts an int to a cooling domain ID.
func cooling0(i int) cooling.DomainID { return cooling.DomainID(i) }

// keep the workload import used even when categories are inlined above.
var _ = workload.SoftwareRedundant

// ---------------------------------------------------------------------------
// §VI partial-reserve deployments.

func BenchmarkSectionVI_PartialReserve(b *testing.B) {
	first := printHeader("§VI partial reserve",
		"throttle-only rooms at partial reserve utilization (paper: first production deployments use 42%)")
	for i := 0; i < b.N; i++ {
		topo := PaperRoom().Topo
		for _, alpha := range []float64{0, 0.42, 1.0} {
			room, err := NewPlacementRoom(topo, WithSlotsPerPair(60), WithReserveUtilization(alpha))
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultTraceConfig(0)
			cfg.TargetDemand = Watts(1.15 * float64(room.AllocatablePower()))
			if alpha < 1 {
				// Public-cloud mix: no software-redundant workloads (§II-B).
				cfg.CategoryShares = [3]float64{0, 0.69, 0.31}
			}
			trace, err := GenerateTrace(cfg, 3)
			if err != nil {
				b.Fatal(err)
			}
			pol := FlexOffline{BatchFraction: 0.5, MaxNodes: 200}
			pl, err := pol.Place(context.Background(), room, trace)
			if err != nil {
				b.Fatal(err)
			}
			if err := pl.Validate(); err != nil {
				b.Fatalf("alpha=%.2f unsafe: %v", alpha, err)
			}
			if first {
				extra := float64(pl.PairLoad().Total())/float64(topo.ConventionalAllocatablePower()) - 1
				fmt.Printf("  reserve use %3.0f%%: placed %v (%+.1f%% vs conventional), stranded %.1f%% of allocatable\n",
					alpha*100, pl.PairLoad().Total(), extra*100, pl.StrandedFraction()*100)
			}
		}
		first = false
	}
}

// ---------------------------------------------------------------------------
// Flex + oversubscription composition (paper §I/related work).

func BenchmarkExtension_FlexPlusOversubscription(b *testing.B) {
	first := printHeader("Extension: Flex + oversubscription",
		"placed nameplate power when composing Flex with normal-operation oversubscription")
	for i := 0; i < b.N; i++ {
		topo := PaperRoom().Topo
		cfg := DefaultTraceConfig(topo.ProvisionedPower())
		cfg.TargetDemand = Watts(1.4 * float64(topo.ProvisionedPower()))
		trace, err := GenerateTrace(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		pol := FlexOffline{BatchFraction: 0.5, MaxNodes: 200}
		for _, over := range []float64{1.0, 1.10, 1.20} {
			room, err := NewPlacementRoom(topo, WithSlotsPerPair(140))
			if err != nil {
				b.Fatal(err)
			}
			room.Oversubscription = over
			pl, err := pol.Place(context.Background(), room, trace)
			if err != nil {
				b.Fatal(err)
			}
			if err := pl.Validate(); err != nil {
				b.Fatalf("O=%.2f unsafe: %v", over, err)
			}
			if first {
				fmt.Printf("  oversubscription %.2f: placed %v nameplate (%.0f%% of provisioned), stranded %.1f%%\n",
					over, pl.PairLoad().Total(),
					100*float64(pl.PairLoad().Total())/float64(topo.ProvisionedPower()),
					pl.StrandedFraction()*100)
			}
		}
		first = false
	}
}

// ---------------------------------------------------------------------------
// §VI cooling redundancy.

func BenchmarkSectionVI_CoolingRedundancy(b *testing.B) {
	first := printHeader("§VI cooling redundancy",
		"thermal window and mitigation mix after losing cooling units (paper: minutes available; migrate before capping)")
	for i := 0; i < b.N; i++ {
		domains := []cooling.Domain{
			{ID: 0, Units: 4, UnitCFM: 40000},
			{ID: 1, Units: 4, UnitCFM: 40000},
		}
		var racks []cooling.Rack
		mk := func(id string, dom int, cat Category, kw float64) cooling.Rack {
			r := cooling.Rack{ID: id, Domain: cooling0(dom), Power: Watts(kw * 1e3),
				CFMPerWatt: 0.1, Category: cat}
			if cat == NonRedundantCapable {
				r.FlexPower = Watts(0.85 * float64(r.Power))
			}
			return r
		}
		for j := 0; j < 3; j++ {
			racks = append(racks, mk(fmt.Sprintf("a-sr-%d", j), 0, SoftwareRedundant, 100))
		}
		for j := 0; j < 6; j++ {
			racks = append(racks, mk(fmt.Sprintf("a-cap-%d", j), 0, NonRedundantCapable, 100))
		}
		for j := 0; j < 6; j++ {
			racks = append(racks, mk(fmt.Sprintf("a-nc-%d", j), 0, NonRedundantNonCapable, 100))
		}
		for j := 0; j < 5; j++ {
			racks = append(racks, mk(fmt.Sprintf("b-nc-%d", j), 1, NonRedundantNonCapable, 100))
		}
		plan, err := cooling.PlanMitigation(domains, racks, 0, 2, cooling.DefaultThermalParams())
		if err != nil {
			b.Fatal(err)
		}
		if first {
			kinds := map[string]int{}
			for _, s := range plan.Steps {
				kinds[s.Kind.String()]++
			}
			fmt.Printf("  lose 2/4 CRAH units: thermal window %v (power budget: %v)\n",
				plan.Window.Truncate(time.Second), FlexLatencyBudget)
			fmt.Printf("  mitigation: %v, post-mitigation safe: %v\n", kinds, plan.Safe)
			first = false
		}
	}
}
