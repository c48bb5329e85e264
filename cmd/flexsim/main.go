// Command flexsim runs the Flex analyses and snapshot simulations:
//
//	flexsim -experiment fig12        Figure 12 runtime-decision sweep
//	flexsim -experiment episode      §V-C UPS-failure episode (replayable)
//	flexsim -experiment fleet        multi-room sharded fleet (-rooms N)
//	flexsim -experiment feasibility  §III joint-probability analysis
//	flexsim -experiment montecarlo   §III Monte Carlo cross-check
//	flexsim -experiment cost         §I construction-cost savings
//	flexsim -experiment designs      §II-A redundancy design comparison
//
// -record FILE writes a flight-recorder event log (length-prefixed
// JSONL). An episode recording starts with a replay header and can be
// re-driven with flexreplay; fig12 recordings are headerless, for reading
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
	experiment := fs.String("experiment", "fig12", "fig12|episode|fleet|feasibility|montecarlo|cost|designs")
	seed := fs.Int64("seed", 1, "random seed")
	rooms := fs.Int("rooms", 10, "fleet experiment: number of UPS fault domains")
	samples := fs.Int("samples", 3, "power snapshots per (failure, utilization)")
	workers := fs.Int("workers", 0, "branch-and-bound workers per ILP solve (0 = NumCPU; deterministic for any value)")
	csvDir := fs.String("csvdir", "", "also write results as CSV files into this directory")
	record := fs.String("record", "", "write the flight-recorder event log to this file (JSONL)")
	withSLO := fs.Bool("slo", false, "episode experiment: run the continuous safety auditor, print an SLO summary, and fail unless health flips healthy→degraded→healthy with a probe-fail-free steady state (the slo-smoke gate)")
	latency := fs.Bool("latency", false, "fleet experiment: print the per-episode latency waterfall and fail unless the failed room's stitched stages reconcile with the measured shed latency and every stage's exact maximum sits inside its carve of the 10s budget (the latency-smoke gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var rec *flex.FlightRecorder
	if *record != "" {
		f, ferr := os.Create(*record)
		if ferr != nil {
			return ferr
		}
		// 1<<18 events outlasts the compressed episode run; Overwritten()
		// is checked below so a silently truncated ring cannot masquerade
		// as a complete log.
		rec = flex.NewFlightRecorder(1 << 18)
		rec.AttachSink(flex.NewFlightSink(f))
		defer func() {
			if n := rec.Overwritten(); n > 0 {
				fmt.Fprintf(os.Stderr, "flexsim: ring overwrote %d events; the in-memory log is incomplete\n", n)
			}
			// A write error truncated the file: fail the run.
			if derr := rec.DetachSink(); derr != nil {
				err = errors.Join(err, fmt.Errorf("writing event log %s: %w", *record, derr))
				return
			}
			fmt.Fprintf(out, "recorded %d events to %s\n", rec.Emitted(), *record)
		}()
	}

	reg := obs.NewRegistry()
	var aud *slo.Auditor
	if *withSLO {
		aud = slo.NewAuditor(slo.Config{
			Store:    tsdb.NewStore(tsdb.Options{}),
			Recorder: rec,
			// The emulator pumps UPS telemetry every 1.5s and rack
			// telemetry every 2s; thresholds must sit above the cadence.
			UPSFreshness:  3 * time.Second,
			RackFreshness: 4 * time.Second,
		})
	}

	switch *experiment {
	case "fig12":
		return runFigure12(ctx, out, *seed, *samples, *workers, *csvDir, milp.NewMetrics(reg), rec)
	case "episode":
		return runEpisode(ctx, out, *seed, rec, reg, aud)
	case "fleet":
		return runFleet(ctx, out, *rooms, *seed, reg, rec, *latency)
	case "feasibility":
		return runFeasibility(out)
	case "montecarlo":
		return runMonteCarlo(out, *seed)
	case "cost":
		return runCost(out)
	case "designs":
		return runDesigns(out)
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

// runEpisode drives the compressed §V-C emulation — setup, single-UPS
// failure at 4 minutes, recovery at 7 — so a complete, replayable
// overdraw episode is captured in a few hundred milliseconds of wall
// time on the virtual clock.
func runEpisode(ctx context.Context, out io.Writer, seed int64, rec *flex.FlightRecorder, reg *obs.Registry, aud *slo.Auditor) error {
	cfg := flex.EmulationConfig{
		Tick:      time.Second,
		FailAt:    4 * time.Minute,
		RecoverAt: 7 * time.Minute,
		Duration:  10 * time.Minute,
		Seed:      seed,
		Recorder:  rec,
	}
	if aud != nil {
		cfg.Obs = reg // the stage histograms the auditor's latency budgets read register here
		cfg.Safety = aud
	}
	res, err := flex.RunEmulationContext(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "episode: UPS failure at 4m, recovery at 7m (virtual clock)\n")
	fmt.Fprintf(out, "  detection latency: %v, shave latency: %v\n", res.DetectionLatency, res.ShaveLatency)
	fmt.Fprintf(out, "  SR shutdown: %.0f%%, cap-able throttled: %.0f%%, outage: %v, restored: %v\n",
		res.SRShutdownFrac*100, res.CapThrottledFrac*100, res.Outage, res.RestoredAll)
	if rec != nil && rec.Overwritten() > 0 {
		return fmt.Errorf("flight-recorder ring overwrote %d events; recording is not replayable", rec.Overwritten())
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
			name := filepath.Join(csvDir, "figure12-"+sc.Name+".csv")
			f, err := os.Create(name)
			if err != nil {
				return err
			}
			if err := report.WriteFigure12(f, sc.Name, pts); err != nil {
				_ = f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "  wrote %s\n", name)
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
	if latency && rec == nil {
		// Waterfall stitching groups traces by flight-recorder episode id
		// and the exemplar joins point at recorder events, so the latency
		// gate always runs recorded — in memory when -record is absent.
		rec = flex.NewFlightRecorder(1 << 18)
	}
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
