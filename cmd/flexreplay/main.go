// Command flexreplay deterministically re-drives a recorded Flex
// episode log and diffs the replayed planning decisions against the
// recorded ones:
//
//	flexsim -experiment fig13 -quick -record episode.jsonl
//	flexreplay episode.jsonl
//
// The log must start with a replay header (flexsim's fig13 experiment
// and the emulation harness emit one). Replay reconstructs every
// controller's exact planning input from the event stream — telemetry
// views from sample-arrive events, acted sets from action acks — reruns
// Algorithm 1 at each recorded plan-start on a virtual clock, and
// reports any divergence. Exit status is non-zero when the diff is not
// empty.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"flex/internal/obs/recorder"
	"flex/internal/replay"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flexreplay:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flexreplay", flag.ContinueOnError)
	minPlans := fs.Int("min-plans", 0, "fail unless at least this many planning passes were replayed")
	episode := fs.Uint64("episode", 0, "also print the causal chain of this episode ID")
	verbose := fs.Bool("v", false, "print every plan verdict, not just divergences")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: flexreplay [-min-plans N] [-episode ID] [-v] <episode.jsonl>")
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	events, err := recorder.ReadEvents(f)
	_ = f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", fs.Arg(0), err)
	}

	rep, err := replay.Replay(context.Background(), events)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %d events spanning %v: %d episodes, %d plans (%d matched, %d diverged)\n",
		rep.Events, rep.Elapsed, rep.Episodes, len(rep.Plans), rep.Matched, rep.Mismatched)
	for _, p := range rep.Plans {
		if p.Match && !*verbose {
			continue
		}
		verdict := "MATCH"
		if !p.Match {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(out, "  plan seq=%d actor=%s episode=%d actions=%d/%d %s",
			p.Seq, p.Actor, p.Episode, p.Recorded, p.Replayed, verdict)
		if p.Aborted {
			fmt.Fprint(out, " (aborted: prefix check)")
		}
		if p.Mismatch != "" {
			fmt.Fprintf(out, ": %s", p.Mismatch)
		}
		fmt.Fprintln(out)
	}

	if *episode != 0 {
		chain := recorder.ApplyFilter(events, recorder.Filter{Episode: *episode, WithCauses: true})
		fmt.Fprintf(out, "episode %d causal chain (%d events):\n", *episode, len(chain))
		for _, e := range chain {
			fmt.Fprintf(out, "  seq=%-8d cause=%-8d %-20s actor=%-12s subject=%-16s value=%.1f %s\n",
				e.Seq, e.Cause, e.Type, e.Actor, e.Subject, e.Value, e.Detail)
		}
	}

	if len(rep.Plans) < *minPlans {
		return fmt.Errorf("replayed only %d plans, want at least %d", len(rep.Plans), *minPlans)
	}
	if !rep.DiffEmpty() {
		return fmt.Errorf("decision diff not empty: %d of %d plans diverged", rep.Mismatched, len(rep.Plans))
	}
	fmt.Fprintln(out, "decision diff empty: replay reproduces the recorded run")
	return nil
}
