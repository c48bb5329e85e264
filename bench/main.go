// Command bench is flexbench, this repository's benchmark: four workloads
// over the shed path, the placement path and online admission, end-to-end
// metrics labelled host or virtual, and a per-layer ladder measured from
// outside by timing calls into each layer's public functions.
//
//	go run ./bench                          all four workloads, end to end
//	go run ./bench -workload room-episode   one workload
//	go run ./bench -trace [-workload W]     the traced run: per-layer ladder and spans
//	go run ./bench -repeat 2                two sets back to back, compared against the bounds
//
// See README.md beside this file for the metric tables. The last line of
// a single-workload run is the one-line JSON result the benchmark driver
// reads (BENCHMARK.json at the repository root is its contract).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"flex/internal/clock"
)

func main() {
	// The one place the benchmark touches the wall clock: everything below
	// reads host time through this injected clock.
	var clk clock.Clock = clock.Real{}
	if err := run(context.Background(), clk, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repeat   int
	scale    string
	outDir   string
}

// resultPrefix marks the full result a child process hands its parent.
const resultPrefix = "flexbench-result "

func run(ctx context.Context, clk clock.Clock, args []string, out io.Writer) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames(), "|")+" (default: all four, each in a fresh child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured section; fixes the repetition count")
	fs.BoolVar(&o.trace, "trace", false, "the traced run: per-layer ladder, spans under -out, self-time table")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many full sets back to back and compare them against the bounds")
	fs.StringVar(&o.scale, "scale", "std", "workload sizes: std|full|tiny")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory the traced run writes span files to")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return err
	}
	sc, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	if o.seconds < 1 || o.repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	e := env{clk: clk, sc: sc, seed: o.seed}

	if o.workload != "" {
		if o.repeat > 1 {
			return fmt.Errorf("-repeat compares full sets; drop -workload")
		}
		return runOne(ctx, e, o, out)
	}
	sets := make([][]*result, o.repeat)
	for s := range sets {
		for _, name := range workloadNames() {
			res, err := runChild(ctx, o, name, out)
			if err != nil {
				return err
			}
			sets[s] = append(sets[s], res)
		}
	}
	failed := 0
	for _, set := range sets {
		for _, res := range set {
			failed += res.Failed
		}
	}
	if o.repeat > 1 {
		if err := compareSets(out, sets); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// joinTraceValue rewrites "--trace 0|1" (the driver's form) to
// "--trace=0|1"; a bare -trace stays a boolean switch.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, args[i]+"="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// runOne runs one workload in this process and prints its report, the
// full result for a parent, and the driver's line last.
func runOne(ctx context.Context, e env, o options, out io.Writer) error {
	var res *result
	var err error
	if o.trace {
		fmt.Fprintf(out, "== %s: traced run (seed %d, scale %s)\n", o.workload, e.seed, e.sc.Name)
		res, err = runTraced(ctx, e, o.workload, o.seconds, o.outDir, out)
	} else {
		fmt.Fprintf(out, "== %s: end to end (seed %d, scale %s, %ds)\n", o.workload, e.seed, e.sc.Name, o.seconds)
		res, err = runWorkload(ctx, e, o.workload, o.seconds, out)
	}
	if err != nil {
		return err
	}
	printResult(out, res)
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n", resultPrefix, full)
	line, err := json.Marshal(driverLine(res))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// driverResult is the builder contract's result object.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine keeps the metrics BENCHMARK.json names: every per-layer
// metric of a traced run, the Driver rows of an end-to-end one.
func driverLine(res *result) driverResult {
	d := driverResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for name, v := range res.Metrics {
		if res.Traced || isDriverMetric(name) {
			d.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
		}
	}
	return d
}

func isDriverMetric(name string) bool {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Driver
		}
	}
	return false
}

func printResult(out io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	clockOf := map[string]string{}
	for _, m := range endToEnd {
		clockOf[m.Name] = m.Clock
	}
	for _, m := range perLayer {
		clockOf[m.Name] = m.Clock
	}
	fmt.Fprintf(out, "  %-40s %14s %-6s %-8s %s\n", "metric", "median", "unit", "clock", "min .. max")
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(out, "  %-40s %14.6g %-6s %-8s %.6g .. %.6g\n", name, v.Value, v.Unit, clockOf[name], v.Min, v.Max)
	}
	fmt.Fprintf(out, "  operations: %d attempted, %d failed; %d repetitions\n", res.Attempted, res.Failed, res.Reps)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	if !res.Traced {
		fmt.Fprintf(out, "  op_us is per %s; input hash %s  fingerprint %s\n", opOf(res.Workload), res.InputHash, res.Fingerprint)
	}
}

func opOf(workload string) string {
	for _, w := range workloadSpecs {
		if w.Name == workload {
			return w.Op
		}
	}
	return "operation"
}

// runChild runs one workload in a fresh process, so no workload inherits
// another's heap, and returns the result it hands back.
func runChild(ctx context.Context, o options, name string, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-scale", o.scale, "-out", o.outDir}
	if o.trace {
		args = append(args, "-trace")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	// The child's report is worth showing even when it failed.
	var res *result
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	for i, line := range lines {
		if rest, ok := strings.CutPrefix(line, resultPrefix); ok {
			res = new(result)
			if jerr := json.Unmarshal([]byte(rest), res); jerr != nil {
				return nil, fmt.Errorf("%s: bad result line: %w", name, jerr)
			}
			continue
		}
		if i == len(lines)-1 && res != nil {
			continue // the driver's line; the parent has the full result
		}
		fmt.Fprintln(out, line)
	}
	if res == nil {
		if err == nil {
			err = fmt.Errorf("no result")
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}
