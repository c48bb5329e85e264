// Command flexplace runs the Flex-Offline placement evaluation (paper
// §V-A, Figures 9 and 10): it generates shuffled short-term-demand traces
// for the paper's 9.6MW 4N/3 room, places them with each policy, and
// prints box statistics of stranded power and throttling imbalance.
//
// Usage:
//
//	flexplace [-traces N] [-seed S] [-nodes N] [-workers N] [-maxdep R]
//	          [-srshare F] [-reserve F] [-oversub F] [-in trace.json]
//	          [-out trace.json] [-csvout rows.csv]
//	          [-policy all|random|brr|short|long|oracle|online] [-room paper|emulation]
//	flexplace -smoke
//
// -policy online runs the online incremental admitter (DESIGN.md "Online
// placement"): one deployment at a time on an allocation-free hot path,
// with a warm background ILP re-solve (run synchronously here so results
// are reproducible). -smoke runs the online-smoke acceptance check on the
// §V-C emulation trace: the placement must validate (zero Eq. 2 / Eq. 4
// violations) and strand at most 10 percentage points more power than
// the Flex-Offline optimum; exits non-zero otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"flex"
	"flex/internal/report"
	"flex/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flexplace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flexplace", flag.ContinueOnError)
	traces := fs.Int("traces", 10, "number of shuffled trace variations")
	seed := fs.Int64("seed", 1, "base random seed")
	nodes := fs.Int("nodes", 800, "branch-and-bound node budget per ILP batch")
	workers := fs.Int("workers", 0, "branch-and-bound workers per ILP solve (0 = NumCPU; deterministic for any value)")
	maxDep := fs.Int("maxdep", 0, "split deployments larger than this many racks (0 = off)")
	srShare := fs.Float64("srshare", 0.13, "software-redundant power share of demand")
	reserve := fs.Float64("reserve", 1.0, "fraction of reserved power allocated (§VI: 0.42 for throttle-only rooms)")
	oversub := fs.Float64("oversub", 1.0, "power oversubscription factor (>= 1)")
	traceIn := fs.String("in", "", "read the demand trace from this JSON file instead of generating one")
	traceOut := fs.String("out", "", "write the generated demand trace to this JSON file")
	csvOut := fs.String("csvout", "", "also write the Figure 9/10 rows as CSV to this file")
	policy := fs.String("policy", "all", "policy to evaluate: all, random, rr, brr, firstfit, short, long, oracle, online")
	roomKind := fs.String("room", "paper", "room to place into: paper (§V-A, 9.6MW) or emulation (§V-C, 4.8MW)")
	smoke := fs.Bool("smoke", false, "run the online-smoke acceptance check on the §V-C trace and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		return runOnlineSmoke(out, *seed, *nodes, *workers)
	}

	room := flex.PaperRoom()
	if *roomKind == "emulation" {
		room = flex.EmulationRoom()
	} else if *roomKind != "paper" {
		return fmt.Errorf("unknown -room %q (want paper or emulation)", *roomKind)
	}
	if *reserve != 1.0 {
		r, err := flex.NewPlacementRoom(room.Topo, flex.WithSlotsPerPair(60), flex.WithReserveUtilization(*reserve))
		if err != nil {
			return err
		}
		room = r
	}
	room.Oversubscription = *oversub
	cfg := flex.DefaultTraceConfig(room.Topo.ProvisionedPower())
	cfg.MaxDeploymentRacks = *maxDep
	if *srShare != 0.13 {
		rest := 1 - *srShare
		cfg.CategoryShares = [3]float64{*srShare, rest * 0.56 / 0.87, rest * 0.31 / 0.87}
	}

	var base []flex.Deployment
	var err error
	if *traceIn != "" {
		f, ferr := os.Open(*traceIn)
		if ferr != nil {
			return ferr
		}
		base, err = flex.ReadTrace(f)
		_ = f.Close()
	} else {
		base, err = flex.GenerateTrace(cfg, *seed)
	}
	if err != nil {
		return err
	}
	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			return ferr
		}
		if err := flex.WriteTrace(f, base); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	variations := make([][]flex.Deployment, *traces)
	for i := range variations {
		variations[i] = flex.ShuffleTrace(base, *seed+int64(i)*101)
	}

	short, long, oracle := flex.FlexOfflineShort(), flex.FlexOfflineLong(), flex.FlexOfflineOracle()
	short.MaxNodes, long.MaxNodes, oracle.MaxNodes = *nodes/2, *nodes, *nodes*2
	short.Workers, long.Workers, oracle.Workers = *workers, *workers, *workers
	online := flex.NewOnlinePlacement(flex.WithPlacementSeed(*seed), flex.WithSyncResolve())
	var policies []flex.Policy
	switch *policy {
	case "all":
		policies = []flex.Policy{
			flex.RandomPolicy{Seed: *seed},
			flex.BalancedRoundRobinPolicy{},
			short, long, oracle, online,
		}
	case "random":
		policies = []flex.Policy{flex.RandomPolicy{Seed: *seed}}
	case "rr":
		policies = []flex.Policy{flex.RoundRobinPolicy{}}
	case "brr":
		policies = []flex.Policy{flex.BalancedRoundRobinPolicy{}}
	case "firstfit":
		policies = []flex.Policy{flex.FirstFitPolicy{}}
	case "short":
		policies = []flex.Policy{short}
	case "long":
		policies = []flex.Policy{long}
	case "oracle":
		policies = []flex.Policy{oracle}
	case "online":
		policies = []flex.Policy{online}
	default:
		return fmt.Errorf("unknown -policy %q", *policy)
	}

	fmt.Fprintf(out, "Room: %v provisioned, %v design, %d PDU-pairs, %d traces\n\n",
		room.Topo.ProvisionedPower(), room.Topo.Design, len(room.Topo.Pairs), *traces)
	fmt.Fprintf(out, "%-22s  %-52s  %s\n", "policy", "stranded power (% of provisioned)", "throttling imbalance (%)")
	var csvRows []report.PolicyRow
	for _, pol := range policies {
		var stranded, imbalance []float64
		for _, tr := range variations {
			pl, err := pol.Place(context.Background(), room, tr)
			if err != nil {
				return fmt.Errorf("%s: %w", pol.Name(), err)
			}
			if err := pl.Validate(); err != nil {
				return fmt.Errorf("%s produced unsafe placement: %w", pol.Name(), err)
			}
			stranded = append(stranded, pl.StrandedFraction()*100)
			imbalance = append(imbalance, pl.ThrottlingImbalance()*100)
		}
		fmt.Fprintf(out, "%-22s  %-52s  %s\n", pol.Name(),
			stats.BoxOf(stranded).String(), stats.BoxOf(imbalance).String())
		csvRows = append(csvRows, report.PolicyRow{
			Policy:    pol.Name(),
			Stranded:  stats.BoxOf(stranded),
			Imbalance: stats.BoxOf(imbalance),
		})
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		if err := report.WritePolicyBoxes(f, csvRows); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", *csvOut)
	}
	return nil
}

// runOnlineSmoke is the `make online-smoke` acceptance check (ISSUE 9):
// the online policy on the §V-C emulation trace must produce a safe
// placement — zero Eq. 2 normal-operation violations, zero Eq. 4
// failover violations — and strand at most 10 percentage points more
// power than the Flex-Offline optimum. Re-solves run synchronously, so
// the check is deterministic for a fixed seed.
func runOnlineSmoke(out io.Writer, seed int64, nodes, workers int) error {
	room := flex.EmulationRoom()
	trace, err := flex.GenerateTrace(flex.DefaultTraceConfig(room.Topo.ProvisionedPower()), seed)
	if err != nil {
		return err
	}
	online := flex.NewOnlinePlacement(flex.WithPlacementSeed(seed), flex.WithSyncResolve())
	onp, err := online.Place(context.Background(), room, trace)
	if err != nil {
		return fmt.Errorf("online placement: %w", err)
	}
	if err := onp.Validate(); err != nil {
		return fmt.Errorf("online placement unsafe: %w", err)
	}
	// Validate covers Eq. 2 as part of the full safety re-check; count the
	// violations explicitly anyway, since "zero Eq. 2 violations" is the
	// smoke criterion by name.
	eq2 := 0
	for u, w := range room.Topo.UPSLoads(onp.PairLoad()) {
		if w > room.NormalLimit(flex.UPSID(u))+flex.CapacityTolerance {
			eq2++
		}
	}
	if eq2 != 0 {
		return fmt.Errorf("online placement has %d Eq. 2 violations", eq2)
	}
	oracle := flex.FlexOfflineOracle()
	oracle.MaxNodes, oracle.Workers = nodes*2, workers
	offp, err := oracle.Place(context.Background(), flex.EmulationRoom(), trace)
	if err != nil {
		return fmt.Errorf("offline reference: %w", err)
	}
	gap := onp.StrandedFraction() - offp.StrandedFraction()
	fmt.Fprintf(out, "online-smoke: §V-C trace, %d deployments\n", len(trace))
	fmt.Fprintf(out, "  online:  placed %d/%d, stranded %.2f%%\n",
		len(onp.Assignments), len(trace), onp.StrandedFraction()*100)
	fmt.Fprintf(out, "  offline: placed %d/%d, stranded %.2f%%\n",
		len(offp.Assignments), len(trace), offp.StrandedFraction()*100)
	fmt.Fprintf(out, "  gap %.2fpp (bound 10pp), Eq. 2 violations: %d, safety: ok\n", gap*100, eq2)
	if gap > 0.10 {
		return fmt.Errorf("online stranded power gap %.2fpp exceeds the 10pp bound", gap*100)
	}
	return nil
}
