package main

import (
	"context"
	"fmt"
	"io"
)

// runTraced is the traced run, never mixed with the end-to-end numbers:
// the ladder (every rung, whatever the workload, so that one run answers
// for every layer), then the workload's span-instrumented twin beside the
// same loop with spans off.
func runTraced(ctx context.Context, e env, name string, seconds int, outDir string, out io.Writer) (*result, error) {
	e.reps = max(1, e.sc.reps(name, seconds)/3)
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Scale: e.sc.Name, Seed: e.seed, Reps: e.reps, Traced: true, Metrics: map[string]value{}}
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	in := newDigest()
	w.inputs(in)
	res.InputHash = in.String()

	fmt.Fprintf(out, "  ladder...\n")
	if err := runLadder(ctx, e, res); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	fmt.Fprintf(out, "  traced %s...\n", name)
	if _, err := w.traced(ctx, 0, nil, &result{}); err != nil { // warm-up
		return nil, err
	}
	tr := newTracer(e.clk)
	var on, off []float64
	for i := 1; i <= e.reps; i++ {
		tr.run = int32(i)
		wall, err := w.traced(ctx, i, tr, res)
		if err != nil {
			return nil, fmt.Errorf("traced repetition %d: %w", i, err)
		}
		on = append(on, wall.Seconds())
		wall, err = w.traced(ctx, i, nil, &result{})
		if err != nil {
			return nil, fmt.Errorf("untraced repetition %d: %w", i, err)
		}
		off = append(off, wall.Seconds())
	}
	res.Metrics["trace.overhead_ratio"] = exact(median(on)/median(off), "ratio")
	res.Metrics["trace.spans"] = exact(float64(len(tr.spans)), "count")
	self, total := tr.selfTimes()
	for _, l := range traceLayers {
		res.Metrics["trace.self_share."+l] = exact(float64(self[l])/float64(total), "ratio")
	}
	tr.printTable(out)
	path, err := tr.writeJSONL(outDir, name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  spans written to %s\n", path)
	return res, nil
}
