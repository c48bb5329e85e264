// Command flexsim runs the Flex analyses, snapshot simulations and
// emulations:
//
//	flexsim -experiment fig12        Figure 12 runtime-decision sweep
//	flexsim -experiment fig13        §V-C / Figure 13 UPS-failure emulation
//	flexsim -experiment fleet        multi-room sharded fleet (-rooms N)
//	flexsim -experiment feasibility  §III joint-probability analysis
//	flexsim -experiment montecarlo   §III Monte Carlo cross-check
//	flexsim -experiment cost         §I construction-cost savings
//	flexsim -experiment designs      §II-A redundancy design comparison
//
// fig13 runs the paper's 24-minute timeline (UPS failure at 12 minutes,
// recovery at 18) and prints the UPS power timeline as an ASCII chart and
// the §V-C summary; -quick compresses it to a failure at 4 minutes,
// recovery at 7 and 10 minutes in all. -util and -scenario set the load
// and the impact scenario, and -slo attaches the continuous safety
// auditor and fails the run unless its health goes
// ready→degraded→ready (the slo-smoke gate).
//
// Shared flags: -csvdir DIR also writes each result table as CSV into
// DIR (figure12-*.csv, figure13.csv). -metrics ends the run with a CSV
// summary of every metric registered (fig12, fig13, fleet). -record FILE
// writes a flight-recorder event log (length-prefixed JSONL). A fig13
// recording starts with a replay header and can be re-driven with
// flexreplay (`flexreplay -episode 1 FILE` prints the first overdraw
// episode's causal chain); fig12 recordings are headerless, for reading
// only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"flex"
	"flex/internal/clock"
	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/report"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flexsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("flexsim", flag.ContinueOnError)
	experiment := fs.String("experiment", "fig12", "fig12|fig13|fleet|feasibility|montecarlo|cost|designs")
	seed := fs.Int64("seed", 1, "random seed")
	rooms := fs.Int("rooms", 10, "fleet experiment: number of UPS fault domains")
	samples := fs.Int("samples", 3, "fig12 experiment: power snapshots per (failure, utilization)")
	workers := fs.Int("workers", 0, "fig12 experiment: branch-and-bound workers per ILP solve (0 = NumCPU; deterministic for any value)")
	util := fs.Float64("util", 0.80, "fig13 experiment: steady-state utilization of provisioned power")
	scenario := fs.String("scenario", "Realistic-1", "fig13 experiment: impact scenario (Extreme-1|Extreme-2|Realistic-1|Realistic-2)")
	quick := fs.Bool("quick", false, "fig13 experiment: compressed timeline (fail @4min, recover @7min, 10min total)")
	withSLO := fs.Bool("slo", false, "fig13 experiment: run the continuous safety auditor, print an SLO summary, and fail unless health flips healthy→degraded→healthy with a probe-fail-free steady state (the slo-smoke gate)")
	latency := fs.Bool("latency", false, "fleet experiment: print the per-episode latency waterfall and fail unless the failed room's stitched stages reconcile with the measured shed latency and every stage's exact maximum sits inside its carve of the 10s budget (the latency-smoke gate)")
	csvDir := fs.String("csvdir", "", "also write results as CSV files into this directory")
	metrics := fs.Bool("metrics", false, "print a metrics summary CSV after the run")
	record := fs.String("record", "", "write the flight-recorder event log to this file (JSONL)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every event reaches the sink; the ring only bounds what stays in
	// memory. The latency gate always runs recorded, in memory when
	// -record is absent: waterfall stitching groups traces by
	// flight-recorder episode id and the exemplar joins point at recorder
	// events.
	var rec *flex.FlightRecorder
	if *record != "" || *latency {
		rec = flex.NewFlightRecorder(1 << 18)
	}
	if *record != "" {
		f, ferr := os.Create(*record)
		if ferr != nil {
			return ferr
		}
		rec.AttachSink(flex.NewFlightSink(f))
		defer func() {
			// A write error truncated the file: fail the run.
			if derr := rec.DetachSink(); derr != nil {
				err = errors.Join(err, fmt.Errorf("writing event log %s: %w", *record, derr))
				return
			}
			fmt.Fprintf(out, "recorded %d events to %s\n", rec.Emitted(), *record)
		}()
	}

	reg := obs.NewRegistry()
	switch *experiment {
	case "fig12":
		err = runFigure12(ctx, out, *seed, *samples, *workers, *csvDir, milp.NewMetrics(reg), rec)
	case "fig13":
		err = runFigure13(ctx, out, *seed, *util, *scenario, *quick, *withSLO, *csvDir, reg, rec)
	case "fleet":
		err = runFleet(ctx, out, *rooms, *seed, reg, rec, *latency)
	case "feasibility":
		err = runFeasibility(out)
	case "montecarlo":
		err = runMonteCarlo(out, *seed)
	case "cost":
		err = runCost(out)
	case "designs":
		err = runDesigns(out)
	default:
		err = fmt.Errorf("unknown experiment %q", *experiment)
	}
	if err != nil || !*metrics {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "metrics summary:")
	return report.WriteMetricsSummary(out, reg)
}

// runFigure13 drives the end-to-end Flex-Online emulation (paper §V-C,
// Figure 13): a 4.8MW zero-reserved-power room of 360 emulated racks, a
// UPS failure, corrective actions by the multi-primary controllers, and
// recovery, on the virtual clock. With withSLO the continuous safety
// auditor watches the run and the slo-smoke gate judges it.
func runFigure13(ctx context.Context, out io.Writer, seed int64, util float64, scenario string, quick, withSLO bool, csvDir string, reg *obs.Registry, rec *flex.FlightRecorder) error {
	cfg := flex.EmulationConfig{Utilization: util, Seed: seed, Obs: reg, Recorder: rec}
	for _, sc := range flex.Figure11Scenarios() {
		if sc.Name == scenario {
			cfg.Scenario = &sc
			break
		}
	}
	if cfg.Scenario == nil {
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	if quick {
		cfg.Tick = time.Second
		cfg.FailAt = 4 * time.Minute
		cfg.RecoverAt = 7 * time.Minute
		cfg.Duration = 10 * time.Minute
	}
	var aud *slo.Auditor
	if withSLO {
		aud = slo.NewAuditor(slo.Config{
			Store:    tsdb.NewStore(tsdb.Options{}),
			Recorder: rec,
			// The emulator pumps UPS telemetry every 1.5s and rack
			// telemetry every 2s; thresholds must sit above the cadence.
			UPSFreshness:  3 * time.Second,
			RackFreshness: 4 * time.Second,
		})
		cfg.Safety = aud
	}
	res, err := flex.RunEmulationContext(ctx, cfg)
	if err != nil {
		return err
	}

	renderTimeline(out, res)
	fmt.Fprintf(out, "Flex-Online emulation (%s, %.0f%% utilization) — paper §V-C reference values in parentheses:\n",
		scenario, util*100)
	fmt.Fprintf(out, "  software-redundant racks shut down:  %.0f%%  (64%%)\n", res.SRShutdownFrac*100)
	fmt.Fprintf(out, "  cap-able racks throttled:            %.0f%%  (51%%)\n", res.CapThrottledFrac*100)
	fmt.Fprintf(out, "  non-cap-able racks touched:          %d    (0)\n", res.NonCapTouched)
	fmt.Fprintf(out, "  detection→first action latency:      %v\n", res.DetectionLatency)
	fmt.Fprintf(out, "  failure→power-below-capacity:        %v  (budget %v)\n", res.ShaveLatency, flex.FlexLatencyBudget)
	fmt.Fprintf(out, "  cascading outage:                    %v    (must be false)\n", res.Outage)
	fmt.Fprintf(out, "  TPC-E-like p95 latency increase:     %+.1f%% (+4.7%%)\n", res.P95IncreasePct)
	fmt.Fprintf(out, "  worst-case latency increase:         %+.1f%% (+14%%)\n", res.WorstIncreasePct)
	fmt.Fprintf(out, "  all racks restored after recovery:   %v\n", res.RestoredAll)
	if res.Insufficient {
		fmt.Fprintln(out, "  WARNING: Algorithm 1 ran out of shaveable racks")
	}
	if csvDir != "" {
		if err := writeCSV(out, csvDir, "figure13.csv", func(w io.Writer) error { return report.WriteFigure13(w, res) }); err != nil {
			return err
		}
	}
	if aud == nil {
		return nil
	}
	fmt.Fprintln(out)
	if err := report.WriteSLOSummary(out, aud.Status(), aud.Transitions()); err != nil {
		return err
	}
	return assertSLOSmoke(aud)
}

// renderTimeline draws the Figure 13(a) UPS power series as an ASCII
// chart: one row per UPS, one column per time bucket, glyphs by load
// relative to the 1.2MW rating.
func renderTimeline(out io.Writer, res *flex.EmulationResult) {
	const cols = 72
	if len(res.Series) < cols {
		return
	}
	step := len(res.Series) / cols
	glyph := func(frac float64) byte {
		switch {
		case frac <= 0.01:
			return '_' // failed / unloaded
		case frac < 0.5:
			return '.'
		case frac < 0.85:
			return 'o'
		case frac <= 1.0:
			return 'O'
		default:
			return '#' // overdraw
		}
	}
	nUPS := len(res.Series[0].UPSPower)
	fmt.Fprintln(out, "UPS power timeline (_ <1%  . <50%  o <85%  O <=100%  # overdraw; rating 1.2MW):")
	for u := 0; u < nUPS; u++ {
		row := make([]byte, 0, cols)
		for c := 0; c < cols; c++ {
			p := res.Series[c*step]
			row = append(row, glyph(float64(p.UPSPower[u])/1.2e6))
		}
		fmt.Fprintf(out, "  UPS%d %s\n", u+1, row)
	}
	// Stage ruler.
	stageRow := make([]byte, 0, cols)
	for c := 0; c < cols; c++ {
		switch res.Series[c*step].Stage {
		case "setup":
			stageRow = append(stageRow, 's')
		case "normal":
			stageRow = append(stageRow, 'n')
		case "failover":
			stageRow = append(stageRow, 'F')
		default:
			stageRow = append(stageRow, 'r')
		}
	}
	fmt.Fprintf(out, "  stage %s\n\n", stageRow)
}

// writeCSV writes one result table to dir/name and reports the path.
func writeCSV(out io.Writer, dir, name string, write func(io.Writer) error) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "  wrote %s\n", path)
	return nil
}

// assertSLOSmoke is the `make slo-smoke` gate: the audited episode must
// flip health healthy→degraded→healthy without ever going unsafe, and
// the what-if probe must end in a probe-fail-free steady state.
func assertSLOSmoke(aud *slo.Auditor) error {
	var sawDegrade, sawRecover bool
	for _, tr := range aud.Transitions() {
		if tr.To == slo.StateUnsafe {
			return fmt.Errorf("slo-smoke: health went unsafe at %v: %v", tr.Time, tr.Reasons)
		}
		if tr.From == slo.StateReady && tr.To == slo.StateDegraded {
			sawDegrade = true
		}
		if sawDegrade && tr.From == slo.StateDegraded && tr.To == slo.StateReady {
			sawRecover = true
		}
	}
	if !sawDegrade || !sawRecover {
		return fmt.Errorf("slo-smoke: health never flipped healthy→degraded→healthy (transitions: %+v)", aud.Transitions())
	}
	if h := aud.Health(); h.State != slo.StateReady {
		return fmt.Errorf("slo-smoke: final health %v (%v), want ready", h.State, h.Reasons)
	}
	st := aud.Status()
	if st.Probe.Rounds == 0 {
		return fmt.Errorf("slo-smoke: what-if probe never ran")
	}
	if st.Probe.Failures != 0 {
		return fmt.Errorf("slo-smoke: %d probe failures (infeasible: %v)", st.Probe.Failures, st.Probe.Infeasible)
	}
	if st.Probe.CleanRounds == 0 {
		return fmt.Errorf("slo-smoke: no probe-fail-free steady state at end of run")
	}
	return nil
}

func runFigure12(ctx context.Context, out io.Writer, seed int64, samples, workers int, csvDir string, sm *milp.Metrics, rec *flex.FlightRecorder) error {
	room := flex.PaperRoom()
	trace, err := flex.GenerateTrace(flex.DefaultTraceConfig(room.Topo.ProvisionedPower()), seed)
	if err != nil {
		return err
	}
	pol := flex.FlexOfflineShort()
	pol.MaxNodes = 300
	pol.SolverMetrics = sm
	pol.Workers = workers
	pl, err := pol.Place(ctx, room, trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Figure 12: Flex-Online decisions vs utilization (mean±std over all UPS failures)\n")
	for _, sc := range flex.Figure11Scenarios() {
		pts, err := flex.RunFigure12Context(ctx, flex.Figure12Config{
			Placement:         pl,
			Scenario:          sc,
			Utilizations:      []float64{0.74, 0.76, 0.78, 0.80, 0.82, 0.84},
			SamplesPerFailure: samples,
			Seed:              seed,
			Recorder:          rec,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%s:\n  %-6s %-14s %-14s %-14s\n", sc.Name, "util", "impacted%", "shutdown%", "throttled%")
		for _, p := range pts {
			fmt.Fprintf(out, "  %-6.2f %-14s %-14s %-14s\n",
				p.Utilization, p.Impacted, p.ShutDown, p.Throttled)
		}
		if csvDir != "" {
			if err := writeCSV(out, csvDir, "figure12-"+sc.Name+".csv", func(w io.Writer) error { return report.WriteFigure12(w, sc.Name, pts) }); err != nil {
				return err
			}
		}
	}
	return nil
}

func runFeasibility(out io.Writer) error {
	a, err := flex.AnalyzeFeasibility(flex.DefaultFeasibilityParams())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Section III feasibility analysis (paper targets in parentheses):")
	fmt.Fprintf(out, "  corrective-action threshold:      %.1f%% utilization (75%%)\n", a.ActionThreshold*100)
	fmt.Fprintf(out, "  SR-shutdown threshold:            %.1f%% utilization\n", a.ShutdownThreshold*100)
	fmt.Fprintf(out, "  P(corrective action needed):      %.5f%%\n", a.ProbActionNeeded*100)
	fmt.Fprintf(out, "  no-action availability:           %.5f%% → %.1f nines (≥4 nines)\n",
		a.NoActionAvailability*100, a.NoActionNines)
	fmt.Fprintf(out, "  P(SR rack shutdown):              %.5f%% (≈0.005%%)\n", a.ProbSRShutdown*100)
	fmt.Fprintf(out, "  SR server availability:           %.1f nines (≥4 nines)\n", a.SRNines)
	fmt.Fprintf(out, "  non-redundant availability:       %.1f nines (5 nines by design)\n", a.NonRedundantNines)
	return nil
}

func runMonteCarlo(out io.Writer, seed int64) error {
	p := flex.DefaultMonteCarloParams()
	p.Seed = seed
	p.Years = 300
	res, err := flex.SimulateYears(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Section III Monte Carlo (%d simulated years):\n", p.Years)
	fmt.Fprintf(out, "  maintenance:            %.1f h/yr\n", float64(res.MaintenanceHours)/float64(p.Years))
	fmt.Fprintf(out, "  corrective actions:     %.2f h/yr (throttle-only %.2f, SR shutdown %.2f)\n",
		float64(res.ActionHours)/float64(p.Years),
		float64(res.ThrottleOnlyHours)/float64(p.Years),
		float64(res.SRShutdownHours)/float64(p.Years))
	fmt.Fprintf(out, "  no-action availability: %.5f%% (%.1f nines)\n", res.NoActionAvailability*100, res.NoActionNines)
	fmt.Fprintf(out, "  SR availability:        %.5f%% (%.1f nines)\n", res.SRAvailability*100, res.SRNines)
	return nil
}

func runCost(out io.Writer) error {
	fmt.Fprintln(out, "Section I construction-cost savings for a 128MW site (paper: $211M @$5/W, $422M @$10/W):")
	for _, dpw := range []float64{5, 10} {
		s, err := flex.ComputeSavings(flex.Redundancy{X: 4, Y: 3}, 128*flex.MW, dpw)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  $%2.0f/W: +%.1f%% servers (+%v) → $%.0fM\n",
			dpw, s.ExtraServerFraction*100, s.ExtraPower, s.Dollars/1e6)
	}
	return nil
}

func runDesigns(out io.Writer) error {
	fmt.Fprintln(out, "Redundancy designs (§II-A): reserved power and Flex gains")
	fmt.Fprintf(out, "  %-14s %-10s %-10s %s\n", "design", "reserved", "Flex gain", "worst failover load")
	for _, d := range flex.CompareDesigns() {
		fmt.Fprintf(out, "  %-14s %-10.1f%% %-10.1f%% %.0f%%\n",
			d.Name, d.ReservedFraction*100, d.ExtraServerFraction*100, d.WorstFailoverLoad*100)
	}
	return nil
}

// runFleet drives the multi-room sharded fleet emulation and asserts the
// smoke criteria: every shard ready in the final snapshot, the aggregate
// stranded power equal to the sum of per-room Eq. 5, the failed room shed
// within the 10s budget, and zero cross-shard drops. With latency set it
// additionally prints and asserts the critical-path attribution (the
// latency-smoke gate).
func runFleet(ctx context.Context, out io.Writer, rooms int, seed int64, reg *obs.Registry, rec *flex.FlightRecorder, latency bool) error {
	failRoom := rooms / 2
	var wall clock.Clock = clock.Real{}
	start := wall.Now()
	res, err := flex.RunFleetEmulationContext(ctx, flex.FleetEmulationConfig{
		Rooms:    rooms,
		FailRoom: failRoom,
		Seed:     seed,
		Obs:      reg,
		Recorder: rec,
	})
	if err != nil {
		return err
	}
	took := wall.Now().Sub(start)
	snap := res.Snapshot
	fmt.Fprintf(out, "fleet: %d rooms, UPS failure in room %d (virtual clock)\n", res.Rooms, rooms/2)
	fmt.Fprintf(out, "  host: %v wall at GOMAXPROCS %d\n", took.Round(time.Millisecond), runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "  detect latency: %v, shed latency: %v (budget %v)\n",
		res.DetectLatency, res.ShedLatency, flex.FlexLatencyBudget)
	fmt.Fprintf(out, "  fleet state: %v (%d/%d shards ready), stranded %v, allocatable %v, committed headroom %v\n",
		snap.State, snap.Ready, len(snap.Rooms), snap.StrandedPower, snap.AllocatablePower, snap.CommittedHeadroom)

	if res.ShedLatency < 0 || res.ShedLatency > flex.FlexLatencyBudget {
		return fmt.Errorf("fleet smoke: shed latency %v outside the %v budget", res.ShedLatency, flex.FlexLatencyBudget)
	}
	if res.Outage {
		return fmt.Errorf("fleet smoke: a UPS trip cascaded into an outage (a loaded PDU-pair lost both UPSes)")
	}
	if res.CrossRoomDrops != 0 {
		return fmt.Errorf("fleet smoke: %d samples dropped outside the saturated room, want 0", res.CrossRoomDrops)
	}
	if snap.Ready != len(snap.Rooms) {
		for _, r := range snap.Rooms {
			if r.State != slo.StateReady {
				fmt.Fprintf(out, "  room %s: %v %v\n", r.Name, r.State, r.Reasons)
			}
		}
		return fmt.Errorf("fleet smoke: %d/%d shards ready, want all", snap.Ready, len(snap.Rooms))
	}
	if want := flex.Watts(rooms) * res.PerRoomStranded; snap.StrandedPower != want {
		return fmt.Errorf("fleet smoke: aggregate stranded %v, want %d × %v = %v",
			snap.StrandedPower, rooms, res.PerRoomStranded, want)
	}
	fmt.Fprintln(out, "  fleet smoke: ok")
	if latency {
		return assertLatencySmoke(out, res, fmt.Sprintf("room-%03d", failRoom))
	}
	return nil
}

// Reconciliation tolerances for the latency-smoke gate. Stage durations
// tile the stitched episode span by construction, so their sum matches
// TotalSeconds to float rounding; the measured shed latency additionally
// includes the UPS sampling cadence (1.5s) before the first stamped
// sample and the trip-check granularity after the last actuation, so it
// reconciles within one cadence plus slack.
const (
	stageSumTolerance  = 0.1 // seconds
	shedMatchTolerance = 2.5 // seconds
)

// assertLatencySmoke is the `make latency-smoke` gate: the failed room's
// detect→shed episode must surface as a stitched waterfall whose stage
// durations tile the episode span, the waterfall must reconcile with the
// measured shed latency, every stage's largest observation must sit
// inside its carve of the 10s budget, and each must resolve to a
// flight-recorder episode and event.
func assertLatencySmoke(out io.Writer, res *flex.FleetEmulationResult, failRoom string) error {
	// Per-stage digests against the budget carve.
	if len(res.Stages) == 0 {
		return fmt.Errorf("latency-smoke: no stage digests (fleet not instrumented)")
	}
	budgets := map[string]time.Duration{}
	for _, st := range obs.Stages() {
		budgets[st.String()] = slo.StageBudgets()[st]
	}
	fmt.Fprintf(out, "  %-8s %-8s %-12s %-12s %s\n", "stage", "count", "mean", "max", "budget")
	observed := 0
	for _, st := range res.Stages {
		fmt.Fprintf(out, "  %-8s %-8d %-12s %-12s %v\n", st.Stage, st.Count,
			fmt.Sprintf("%.3fs", st.Mean()), fmt.Sprintf("%.3fs", st.Max), budgets[st.Stage])
		if st.Count == 0 {
			continue
		}
		observed++
		if b := budgets[st.Stage]; st.Max > b.Seconds() {
			return fmt.Errorf("latency-smoke: stage %s max %.3fs over its %v budget carve", st.Stage, st.Max, b)
		}
		if st.Episode == 0 || st.Event == 0 {
			return fmt.Errorf("latency-smoke: stage %s max does not resolve to a recorder event (%+v)", st.Stage, st)
		}
	}
	if observed == 0 {
		return fmt.Errorf("latency-smoke: stage histograms are empty")
	}

	// The failed room's stitched waterfall.
	var ep *flex.FleetEpisodeTrace
	for i := range res.Episodes {
		if res.Episodes[i].Room == failRoom {
			ep = &res.Episodes[i]
			break
		}
	}
	if ep == nil {
		return fmt.Errorf("latency-smoke: no stitched episode for failed room %s (%d episodes total)", failRoom, len(res.Episodes))
	}
	if ep.Root == 0 {
		return fmt.Errorf("latency-smoke: episode %d has no recorder root event", ep.Episode)
	}
	names := make([]string, 0, len(ep.TotalsSeconds))
	for name := range ep.TotalsSeconds {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	fmt.Fprintf(out, "  episode %d (%s, root event %d): %d rounds over %.3fs\n",
		ep.Episode, ep.Room, ep.Root, ep.Traces, ep.TotalSeconds)
	for _, name := range names {
		sum += ep.TotalsSeconds[name]
		fmt.Fprintf(out, "    %-8s %.3fs\n", name, ep.TotalsSeconds[name])
	}
	if d := sum - ep.TotalSeconds; d > stageSumTolerance || d < -stageSumTolerance {
		return fmt.Errorf("latency-smoke: episode %d stage sum %.3fs vs span %.3fs, want within %.1fs",
			ep.Episode, sum, ep.TotalSeconds, stageSumTolerance)
	}
	if d := res.ShedLatency.Seconds() - ep.TotalSeconds; d > shedMatchTolerance || d < -shedMatchTolerance {
		return fmt.Errorf("latency-smoke: measured shed latency %v vs episode span %.3fs, want within %.1fs",
			res.ShedLatency, ep.TotalSeconds, shedMatchTolerance)
	}
	fmt.Fprintln(out, "  latency smoke: ok")
	return nil
}
