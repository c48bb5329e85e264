// Command flexmon runs the end-to-end Flex-Online emulation (paper §V-C,
// Figure 13): a 4.8MW zero-reserved-power room of 360 emulated racks at
// 80% utilization, a UPS failure after 12 minutes, corrective actions by
// the multi-primary controllers, and recovery. It prints the UPS and
// per-category rack power timeline as CSV plus a summary.
//
// Usage:
//
//	flexmon [-util F] [-scenario NAME] [-csv] [-quick] [-metrics] [-record FILE]
//
// With -metrics the run ends with a CSV summary of every metric. With
// -record the whole run is captured as a replayable flight-recorder event
// log: `flexreplay -episode 1 FILE` prints the first overdraw episode's
// causal chain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"flex"
	"flex/internal/obs"
	"flex/internal/report"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flexmon:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("flexmon", flag.ContinueOnError)
	util := fs.Float64("util", 0.80, "steady-state utilization of provisioned power")
	scenario := fs.String("scenario", "Realistic-1", "impact scenario (Extreme-1|Extreme-2|Realistic-1|Realistic-2)")
	csv := fs.Bool("csv", false, "print the full timeline as CSV")
	quick := fs.Bool("quick", false, "compressed timeline (fail @4min, 10min total)")
	seed := fs.Int64("seed", 1, "random seed")
	metrics := fs.Bool("metrics", false, "print a metrics summary CSV after the run")
	record := fs.String("record", "", "write the flight-recorder event log to this file (JSONL, replayable with flexreplay)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sc flex.Scenario
	switch *scenario {
	case "Extreme-1":
		sc = flex.ScenarioExtreme1()
	case "Extreme-2":
		sc = flex.ScenarioExtreme2()
	case "Realistic-1":
		sc = flex.ScenarioRealistic1()
	case "Realistic-2":
		sc = flex.ScenarioRealistic2()
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}

	reg := obs.NewRegistry()
	var rec *flex.FlightRecorder
	if *record != "" {
		f, ferr := os.Create(*record)
		if ferr != nil {
			return ferr
		}
		// A full 24-minute run at 500ms ticks emits a few hundred thousand
		// events; every one reaches the sink, the ring only bounds what
		// stays in memory.
		rec = flex.NewFlightRecorder(1 << 18)
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
	cfg := flex.EmulationConfig{Utilization: *util, Scenario: &sc, Seed: *seed, Obs: reg, Recorder: rec}
	if *quick {
		cfg.Tick = time.Second
		cfg.FailAt = 4 * time.Minute
		cfg.RecoverAt = 7 * time.Minute
		cfg.Duration = 10 * time.Minute
	}
	res, err := flex.RunEmulationContext(ctx, cfg)
	if err != nil {
		return err
	}

	if *csv {
		if err := report.WriteFigure13(out, res); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	renderTimeline(out, res)
	fmt.Fprintf(out, "Flex-Online emulation (%s, %.0f%% utilization) — paper §V-C reference values in parentheses:\n",
		sc.Name, *util*100)
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
	if *metrics {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "metrics summary:")
		if err := report.WriteMetricsSummary(out, reg); err != nil {
			return err
		}
	}
	return nil
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
