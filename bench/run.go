package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"flex/internal/clock"
)

// env is what every workload is built from: the host clock (injected
// once, in main), the sizes, and the run seed all inputs derive from.
type env struct {
	clk  clock.Clock
	sc   scale
	seed int64
	// reps is the number of measured repetitions; inputs exist for
	// repetitions 0 (the warm-up) to reps.
	reps int
}

// repStat is one repetition's measurement. Extra carries the workload's
// own samples by name (virtual latencies, stranded percentages, admit
// percentiles) for report to fold.
type repStat struct {
	wall  time.Duration
	alloc uint64
	ops   int
	extra map[string][]float64
}

func (r *repStat) put(name string, v ...float64) {
	if r.extra == nil {
		r.extra = map[string][]float64{}
	}
	r.extra[name] = append(r.extra[name], v...)
}

// benchWorkload is one of the four benchmark workloads.
type benchWorkload interface {
	// setup generates the run's inputs and builds the fixture through the
	// layers' public constructors. The runner calls it several times and
	// reports the median as setup_s; the last fixture is the one used.
	setup(ctx context.Context) error
	// inputs hashes the generated inputs.
	inputs(d *digest)
	// rep runs measured repetition i end to end, counts operations and
	// failures into res and the simulated outcomes into fp.
	rep(ctx context.Context, i int, res *result, fp *digest) (repStat, error)
	// traced runs the span-instrumented twin of repetition i and returns
	// its wall time. With tr nil the same loop runs with spans off.
	traced(ctx context.Context, i int, tr *tracer, res *result) (time.Duration, error)
	// report turns the repetitions into the workload's own metrics.
	report(reps []repStat, res *result)
}

func newWorkload(name string, e env) (benchWorkload, error) {
	switch name {
	case wlFleet:
		return &fleetWorkload{env: e}, nil
	case wlRoom:
		return &roomWorkload{env: e}, nil
	case wlSweep:
		return &sweepWorkload{env: e}, nil
	case wlChurn:
		return &churnWorkload{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupFor spends a twentieth of the run on set-ups before the warm-up: at
// least five (the median of fewer is not steady), at most two hundred.
func setupFor(ctx context.Context, e env, w benchWorkload, seconds int) (time.Duration, error) {
	var times []float64
	budget := time.Duration(seconds) * time.Second / 20
	begin := e.clk.Now()
	for len(times) < 5 || (len(times) < 200 && e.clk.Now().Sub(begin) < budget) {
		start := e.clk.Now()
		if err := w.setup(ctx); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, e.clk.Now().Sub(start).Seconds())
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

// runWorkload is the end-to-end run: set-ups, one discarded warm-up
// repetition, then the measured repetitions.
func runWorkload(ctx context.Context, e env, name string, seconds int, out io.Writer) (*result, error) {
	e.reps = e.sc.reps(name, seconds)
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Scale: e.sc.Name, Seed: e.seed, Metrics: map[string]value{}}
	setup, err := setupFor(ctx, e, w, seconds)
	if err != nil {
		return nil, err
	}
	in := newDigest()
	w.inputs(in)
	res.InputHash = in.String()

	// Warm-up: repetition 0, whose outcome is discarded. It grows the
	// heap and faults the code in, so that the first measured repetition
	// is not an outlier.
	if _, err := w.rep(ctx, 0, &result{}, newDigest()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	n := e.reps
	res.Reps = n
	fp := newDigest()
	reps := make([]repStat, 0, n)
	var allocs, opUS []float64
	for i := 1; i <= n; i++ {
		st, err := w.rep(ctx, i, res, fp)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		reps = append(reps, st)
		allocs = append(allocs, float64(st.alloc)/1e6)
		opUS = append(opUS, float64(st.wall.Nanoseconds())/1e3/float64(st.ops))
		fmt.Fprintf(out, "  rep %d/%d  %.3fs  %.1f MB\n", i, n, st.wall.Seconds(), float64(st.alloc)/1e6)
	}
	res.Fingerprint = fp.String()

	res.Metrics["setup_s"] = exact(setup.Seconds(), "s")
	res.Metrics["op_us"] = spread(opUS, "us")
	res.Metrics["alloc_mb"] = spread(allocs, "MB")
	w.report(reps, res)
	res.Metrics["fail_ratio"] = exact(float64(res.Failed)/float64(res.Attempted), "ratio")
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.fail(res.Attempted-res.Failed, "%s is not finite", name)
		}
	}
	return res, nil
}

// fold collects one named sample list across repetitions.
func fold(reps []repStat, name string) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, r.extra[name]...)
	}
	return out
}
