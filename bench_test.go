package flex

// The benchmark harness regenerates every figure and in-text result of the
// paper's evaluation (see DESIGN.md's per-experiment index). Each
// Benchmark prints the same rows/series the paper reports, once, and then
// times the underlying computation. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers come from this repository's simulators rather than the
// authors' production fleet; the shape — who wins, by what factor, where
// crossovers fall — is the reproduction target (see EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"flex/internal/impact"
	"flex/internal/power"
	"flex/internal/stats"
	"flex/internal/workload"
)

var printOnce sync.Map

// printHeader emits a section banner once per benchmark name.
func printHeader(name, caption string) bool {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return false
	}
	fmt.Printf("\n=== %s — %s ===\n", name, caption)
	return true
}

// ---------------------------------------------------------------------------
// Figure 3: workload distribution across regions.

func BenchmarkFigure3_WorkloadDistribution(b *testing.B) {
	first := printHeader("Figure 3", "workload category distribution across regions (paper avg: 13/56/31)")
	for i := 0; i < b.N; i++ {
		regions := workload.Figure3Regions()
		if first {
			for _, r := range regions {
				fmt.Printf("  %-10s software-redundant %4.0f%%  cap-able %4.0f%%  non-cap-able %4.0f%%\n",
					r.Region, r.Shares[0]*100, r.Shares[1]*100, r.Shares[2]*100)
			}
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 6: UPS overload tolerance curves.

func BenchmarkFigure6_UPSToleranceCurve(b *testing.B) {
	first := printHeader("Figure 6", "UPS overload tolerance (paper anchor: 10s at 133% end-of-life)")
	for i := 0; i < b.N; i++ {
		eol, bol := power.EndOfLifeTripCurve, power.BeginOfLifeTripCurve
		if first {
			fmt.Printf("  %-8s %-14s %s\n", "load", "end-of-life", "begin-of-life")
			for _, f := range []float64{1.05, 1.10, 1.20, 4.0 / 3.0, 1.50} {
				fmt.Printf("  %5.0f%%   %-14v %v\n", f*100, eol.Tolerance(f), bol.Tolerance(f))
			}
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 9 and 10: placement policies. The placements are computed once
// and shared between the two benchmarks.

type placementRow struct {
	name      string
	stranded  stats.Box
	imbalance stats.Box
}

var (
	fig9Once sync.Once
	fig9Rows []placementRow
	fig9Err  error
)

func figure9Rows() ([]placementRow, error) {
	fig9Once.Do(func() {
		room := PaperRoom()
		base, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 1)
		if err != nil {
			fig9Err = err
			return
		}
		traces := make([][]Deployment, 10)
		for i := range traces {
			traces[i] = ShuffleTrace(base, int64(i))
		}
		short, long, oracle := FlexOfflineShort(), FlexOfflineLong(), FlexOfflineOracle()
		short.MaxNodes, long.MaxNodes, oracle.MaxNodes = 400, 800, 2000
		policies := []Policy{
			RandomPolicy{Seed: 1},
			BalancedRoundRobinPolicy{},
			short, long, oracle,
		}
		for _, pol := range policies {
			var stranded, imbalance []float64
			for _, tr := range traces {
				pl, err := pol.Place(context.Background(), room, tr)
				if err != nil {
					fig9Err = err
					return
				}
				if err := pl.Validate(); err != nil {
					fig9Err = fmt.Errorf("%s: unsafe placement: %w", pol.Name(), err)
					return
				}
				stranded = append(stranded, pl.StrandedFraction()*100)
				imbalance = append(imbalance, pl.ThrottlingImbalance()*100)
			}
			fig9Rows = append(fig9Rows, placementRow{
				name:      pol.Name(),
				stranded:  stats.BoxOf(stranded),
				imbalance: stats.BoxOf(imbalance),
			})
		}
	})
	return fig9Rows, fig9Err
}

func BenchmarkFigure9_StrandedPower(b *testing.B) {
	first := printHeader("Figure 9", "stranded power by placement policy, 10 shuffled traces (% of provisioned)")
	for i := 0; i < b.N; i++ {
		rows, err := figure9Rows()
		if err != nil {
			b.Fatal(err)
		}
		if first {
			for _, r := range rows {
				fmt.Printf("  %-22s %s\n", r.name, r.stranded)
			}
			first = false
		}
	}
}

func BenchmarkFigure10_ThrottlingImbalance(b *testing.B) {
	first := printHeader("Figure 10", "throttling imbalance by placement policy (max−min %)")
	for i := 0; i < b.N; i++ {
		rows, err := figure9Rows()
		if err != nil {
			b.Fatal(err)
		}
		if first {
			for _, r := range rows {
				fmt.Printf("  %-22s %s\n", r.name, r.imbalance)
			}
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// §V-A sensitivity: deployment sizes.

func BenchmarkSectionVA_DeploymentSizes(b *testing.B) {
	first := printHeader("§V-A deployment sizes",
		"Flex-Offline-Short median stranded power vs max deployment size (paper: 10-rack max ≈ half of 20-rack max)")
	for i := 0; i < b.N; i++ {
		room := PaperRoom()
		for _, maxRacks := range []int{20, 10, 5} {
			cfg := DefaultTraceConfig(room.Topo.ProvisionedPower())
			cfg.MaxDeploymentRacks = maxRacks
			var stranded, imbalance []float64
			for s := int64(0); s < 5; s++ {
				base, err := GenerateTrace(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				tr := ShuffleTrace(base, s)
				pol := FlexOfflineShort()
				pol.MaxNodes = 300
				pl, err := pol.Place(context.Background(), room, tr)
				if err != nil {
					b.Fatal(err)
				}
				stranded = append(stranded, pl.StrandedFraction()*100)
				imbalance = append(imbalance, pl.ThrottlingImbalance()*100)
			}
			if first {
				fmt.Printf("  max %2d racks: stranded med %.2f%%  imbalance med %.2f%%\n",
					maxRacks, stats.BoxOf(stranded).Median, stats.BoxOf(imbalance).Median)
			}
		}
		first = false
	}
}

// ---------------------------------------------------------------------------
// §V-A sensitivity: software-redundant share.

func BenchmarkSectionVA_SoftwareRedundantFraction(b *testing.B) {
	first := printHeader("§V-A software-redundant share",
		"Flex-Offline-Long median stranded power vs SR share (paper: 0%→15%, 5%→4%, 10%→3%, then ±1%)")
	for i := 0; i < b.N; i++ {
		room := PaperRoom()
		for _, sr := range []float64{0, 0.05, 0.10, 0.13, 0.20} {
			cfg := DefaultTraceConfig(room.Topo.ProvisionedPower())
			rest := 1 - sr
			// Keep the paper's 31% non-redundant non-cap-able share fixed
			// and give the remainder to cap-able (the paper's sensitivity
			// study holds non-cap-able at 31%).
			cfg.CategoryShares = [3]float64{sr, rest - 0.31, 0.31}
			var stranded []float64
			for s := int64(0); s < 5; s++ {
				base, err := GenerateTrace(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				tr := ShuffleTrace(base, s)
				pol := FlexOfflineLong()
				pol.MaxNodes = 500
				pl, err := pol.Place(context.Background(), room, tr)
				if err != nil {
					b.Fatal(err)
				}
				stranded = append(stranded, pl.StrandedFraction()*100)
			}
			if first {
				fmt.Printf("  SR share %4.0f%%: stranded med %.2f%%\n",
					sr*100, stats.BoxOf(stranded).Median)
			}
		}
		first = false
	}
}

// ---------------------------------------------------------------------------
// Figure 11: the impact-function scenario library.

func BenchmarkFigure11_ImpactScenarios(b *testing.B) {
	first := printHeader("Figure 11", "impact-function scenarios (impact at 0/25/50/75/100% affected racks)")
	for i := 0; i < b.N; i++ {
		scenarios := Figure11Scenarios()
		if first {
			for _, sc := range scenarios {
				sr := sc.ByCategory[SoftwareRedundant]
				cap := sc.ByCategory[NonRedundantCapable]
				fmt.Printf("  %-12s SR:[", sc.Name)
				for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
					fmt.Printf(" %.2f", sr.At(f))
				}
				fmt.Printf(" ]  cap-able:[")
				for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
					fmt.Printf(" %.2f", cap.At(f))
				}
				fmt.Printf(" ]\n")
			}
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 12: Flex-Online runtime decisions.

func BenchmarkFigure12_RuntimeDecisions(b *testing.B) {
	first := printHeader("Figure 12",
		"% racks impacted / SR shut down / cap-able throttled vs utilization, mean±std over UPS failures")
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range Figure11Scenarios() {
			pts, err := RunFigure12Context(context.Background(), Figure12Config{
				Placement:         pl,
				Scenario:          sc,
				Utilizations:      []float64{0.74, 0.78, 0.82, 0.85},
				SamplesPerFailure: 2,
				Seed:              1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if first {
				fmt.Printf("  %s:\n", sc.Name)
				for _, p := range pts {
					fmt.Printf("    util %.2f: impacted %-12s shut %-12s throttled %s\n",
						p.Utilization, p.Impacted, p.ShutDown, p.Throttled)
				}
			}
		}
		first = false
	}
}

// ---------------------------------------------------------------------------
// Figure 13: end-to-end emulation.

func BenchmarkFigure13_EndToEndEmulation(b *testing.B) {
	first := printHeader("Figure 13",
		"end-to-end emulation: 4.8MW room, 80% util, UPS failure and recovery (paper: 64% SR shut, 51% throttled, ~2s actions)")
	for i := 0; i < b.N; i++ {
		sc := ScenarioRealistic1()
		res, err := RunEmulationContext(context.Background(), EmulationConfig{
			Scenario:  &sc,
			Tick:      time.Second,
			FailAt:    6 * time.Minute,
			RecoverAt: 10 * time.Minute,
			Duration:  14 * time.Minute,
			Seed:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Outage {
			b.Fatal("emulation cascaded")
		}
		if first {
			for _, p := range res.Series {
				if p.T%(2*time.Minute) != 0 {
					continue
				}
				fmt.Printf("  t=%-5v %-9s UPS=[%v %v %v %v]\n",
					p.T, p.Stage, p.UPSPower[0], p.UPSPower[1], p.UPSPower[2], p.UPSPower[3])
			}
			fmt.Printf("  SR shut %.0f%% (64%%), cap-able throttled %.0f%% (51%%), shave latency %v (≈2s), outage=%v\n",
				res.SRShutdownFrac*100, res.CapThrottledFrac*100, res.ShaveLatency, res.Outage)
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// §V-C: throttling impact on the TPC-E-like workload.

func BenchmarkSectionVC_ThrottlingLatency(b *testing.B) {
	first := printHeader("§V-C latency",
		"TPC-E-like p95 latency increase on throttled racks (paper: +4.7% average, +14% worst)")
	for i := 0; i < b.N; i++ {
		sc := ScenarioRealistic1()
		res, err := RunEmulationContext(context.Background(), EmulationConfig{
			Scenario:  &sc,
			Tick:      time.Second,
			FailAt:    4 * time.Minute,
			RecoverAt: 8 * time.Minute,
			Duration:  10 * time.Minute,
			Seed:      3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if first {
			fmt.Printf("  p95 increase: %+.1f%%  worst-case: %+.1f%%\n",
				res.P95IncreasePct, res.WorstIncreasePct)
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// §III: feasibility analysis.

func BenchmarkSectionIII_Feasibility(b *testing.B) {
	first := printHeader("§III feasibility",
		"joint probability of maintenance × overdraw (paper: ≥4 nines no-action, ≈0.005% SR shutdown)")
	for i := 0; i < b.N; i++ {
		a, err := AnalyzeFeasibility(DefaultFeasibilityParams())
		if err != nil {
			b.Fatal(err)
		}
		if first {
			fmt.Printf("  action threshold %.0f%%, shutdown threshold %.1f%%\n",
				a.ActionThreshold*100, a.ShutdownThreshold*100)
			fmt.Printf("  no-action availability %.5f%% (%.1f nines); P(SR shutdown) %.4f%%; SR %.1f nines; non-redundant %.0f nines\n",
				a.NoActionAvailability*100, a.NoActionNines, a.ProbSRShutdown*100, a.SRNines, a.NonRedundantNines)
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// §I: construction-cost savings.

func BenchmarkSectionI_CostSavings(b *testing.B) {
	first := printHeader("§I savings",
		"128MW site, 4N/3 (paper: +33% servers; $211M @$5/W, $422M @$10/W)")
	for i := 0; i < b.N; i++ {
		for _, dpw := range []float64{5, 10} {
			s, err := ComputeSavings(Redundancy{X: 4, Y: 3}, 128*MW, dpw)
			if err != nil {
				b.Fatal(err)
			}
			if first {
				fmt.Printf("  $%2.0f/W: +%.1f%% servers → $%.0fM\n",
					dpw, s.ExtraServerFraction*100, s.Dollars/1e6)
			}
		}
		first = false
	}
}

// ---------------------------------------------------------------------------
// §IV-C/§VI: end-to-end latency budget.

func BenchmarkSectionVI_EndToEndLatency(b *testing.B) {
	first := printHeader("§VI latency",
		"failure → detection → power-under-capacity vs the 10s budget (paper prod: ≤3.5s p99.9)")
	for i := 0; i < b.N; i++ {
		var detect, shave []float64
		for seed := int64(1); seed <= 3; seed++ {
			sc := ScenarioRealistic1()
			res, err := RunEmulationContext(context.Background(), EmulationConfig{
				Scenario:  &sc,
				Tick:      500 * time.Millisecond,
				FailAt:    3 * time.Minute,
				RecoverAt: 5 * time.Minute,
				Duration:  6 * time.Minute,
				Seed:      seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			detect = append(detect, res.DetectionLatency.Seconds())
			shave = append(shave, res.ShaveLatency.Seconds())
		}
		if first {
			fmt.Printf("  detection latency: max %.1fs; failure→shaved: max %.1fs (budget %v)\n",
				stats.BoxOf(detect).Max, stats.BoxOf(shave).Max, FlexLatencyBudget)
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 8: production impact-function examples.

func BenchmarkFigure8_ImpactFunctions(b *testing.B) {
	first := printHeader("Figure 8", "example impact functions of three Microsoft services")
	for i := 0; i < b.N; i++ {
		fns := []impact.Function{impact.Figure8A(), impact.Figure8B(), impact.Figure8C()}
		if first {
			labels := []string{
				"A: non-redundant cap-able (VM service)",
				"B: software-redundant stateless",
				"C: software-redundant stateful",
			}
			for k, f := range fns {
				fmt.Printf("  %-40s [", labels[k])
				for _, x := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
					fmt.Printf(" %.2f", f.At(x))
				}
				fmt.Printf(" ] at 0/25/50/75/90/100%%\n")
			}
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// §III Monte Carlo: the stochastic check on the analytic feasibility model.

func BenchmarkSectionIII_MonteCarlo(b *testing.B) {
	first := printHeader("§III Monte Carlo",
		"simulated years of operation vs the analytic model (paper: ≥4 nines, ≈0.005% SR shutdown)")
	for i := 0; i < b.N; i++ {
		p := DefaultMonteCarloParams()
		p.Years = 300
		res, err := SimulateYears(p)
		if err != nil {
			b.Fatal(err)
		}
		if first {
			fmt.Printf("  %d simulated years: maintenance %.1f h/yr, action hours %.2f/yr\n",
				p.Years, float64(res.MaintenanceHours)/float64(p.Years),
				float64(res.ActionHours)/float64(p.Years))
			fmt.Printf("  no-action availability %.5f%% (%.1f nines); SR availability %.5f%% (%.1f nines)\n",
				res.NoActionAvailability*100, res.NoActionNines,
				res.SRAvailability*100, res.SRNines)
			first = false
		}
	}
}

// ---------------------------------------------------------------------------
// §VI charge model: differentiated pricing funded by the capacity gain.

func BenchmarkSectionVI_ChargeModel(b *testing.B) {
	first := printHeader("§VI charge model",
		"price discounts that incentivize flexible workloads, funded by the Flex capacity gain")
	for i := 0; i < b.N; i++ {
		a, err := AnalyzeFeasibility(DefaultFeasibilityParams())
		if err != nil {
			b.Fatal(err)
		}
		m := DefaultChargeModel()
		if first {
			for _, cat := range []Category{SoftwareRedundant, NonRedundantCapable, NonRedundantNonCapable} {
				d, err := m.Discount(cat, a)
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("  %-28v discount %.2f%%\n", cat, d*100)
			}
			s, _ := ComputeSavings(Redundancy{X: 4, Y: 3}, 128*MW, 5)
			frac, err := m.FundedBy(map[Category]float64{
				SoftwareRedundant: 0.13, NonRedundantCapable: 0.56, NonRedundantNonCapable: 0.31,
			}, a, s)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("  power-weighted discounts consume %.1f%% of the capacity gain\n", frac*100)
			first = false
		}
	}
}
