// Command benchjson converts `go test -bench` text output into a JSON
// baseline (see `make bench-solver` and `make bench-obs`, which write
// BENCH_solver.json and BENCH_obs.json). Every parsed record keeps its raw
// result line, so the original benchstat input can be reconstructed
// exactly:
//
//	go test -run '^$' -bench BenchmarkSolverScaling . | benchjson -o BENCH_solver.json
//	benchjson -restore BENCH_solver.json | benchstat old.txt /dev/stdin
//
// Two baselines can be diffed directly — every metric of every benchmark
// present in both files, old vs new with the delta (custom metrics such
// as a stranded-power gap-pp included):
//
//	benchjson -compare BENCH_obs.json BENCH_obs.new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"flex/internal/clock"
)

// Baseline is the file layout of a BENCH_*.json baseline.
type Baseline struct {
	// Commit is the git commit the baseline was captured at (empty when
	// the tree was not a git checkout at capture time).
	Commit string `json:"commit,omitempty"`
	// GeneratedAt is the UTC capture time, RFC 3339.
	GeneratedAt string `json:"generated_at,omitempty"`
	// Env holds the `key: value` header lines (goos, goarch, pkg, cpu).
	Env map[string]string `json:"env"`
	// Benchmarks holds one record per result line, in input order.
	Benchmarks []Record `json:"benchmarks"`
}

// provenance stamps a freshly parsed baseline with the current git
// commit and capture time, so two BENCH_*.json files are comparable as
// points in history. Both stamps are best-effort: outside a git checkout
// the commit is simply absent.
func provenance(b *Baseline) {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		b.Commit = strings.TrimSpace(string(out))
	}
	var clk clock.Clock = clock.Real{}
	b.GeneratedAt = clk.Now().UTC().Format(time.RFC3339)
}

// Record is one benchmark result line.
type Record struct {
	// Name is the benchmark name including the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Pkg is the import path of the package section the record appeared
	// under (the most recent "pkg:" header line). Multi-package runs like
	// `go test -bench . ./internal/obs/...` emit one header block per
	// package; without per-record attribution the records would be
	// indistinguishable across packages in the JSON.
	Pkg string `json:"pkg,omitempty"`
	// Iterations is b.N for the recorded run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value (ns/op, B/op, allocs/op, custom units).
	Metrics map[string]float64 `json:"metrics"`
	// Raw is the verbatim result line, for benchstat reconstruction.
	Raw string `json:"raw"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	restore := flag.String("restore", "", "read a baseline JSON file and print the original benchmark text")
	speedup := flag.String("speedup", "", "read a baseline JSON file and print each record's nodes/s relative to the serial record")
	compare := flag.Bool("compare", false, "compare two baseline JSON files (old new): print old/new/delta per metric")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two baseline files (old new)")
			os.Exit(1)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *restore != "" {
		if err := restoreText(*restore, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *speedup != "" {
		if err := speedupTable(*speedup, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	b, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	provenance(b)
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse consumes `go test -bench` output. Header lines ("goos: linux")
// land in Env; "Benchmark..." lines become Records; everything else (PASS,
// ok, test logs) is ignored.
func parse(r io.Reader) (*Baseline, error) {
	b := &Baseline{Env: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rec, ok := parseResultLine(line); ok {
			rec.Pkg = pkg
			b.Benchmarks = append(b.Benchmarks, rec)
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				b.Env[key] = v
				if key == "pkg" {
					pkg = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}
	return b, nil
}

// parseResultLine parses "BenchmarkX-8   100   123 ns/op   4 B/op ..." —
// the name, the iteration count, then (value, unit) pairs.
func parseResultLine(line string) (Record, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Record{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{
		Name:       fields[0],
		Iterations: iters,
		Metrics:    map[string]float64{},
		Raw:        line,
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		rec.Metrics[fields[i+1]] = v
	}
	return rec, true
}

// speedupTable prints every record carrying a nodes/s metric as a ratio
// against the "/serial" record of the same benchmark — the scaling view of
// BENCH_solver.json (see BenchmarkSolverScaling).
func speedupTable(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	// The reference throughput is the record whose name's last path
	// segment starts with "serial" (the -P GOMAXPROCS suffix follows it).
	baseline := 0.0
	for _, rec := range b.Benchmarks {
		if _, ok := rec.Metrics["nodes/s"]; !ok {
			continue
		}
		seg := rec.Name[strings.LastIndexByte(rec.Name, '/')+1:]
		if strings.HasPrefix(seg, "serial") {
			baseline = rec.Metrics["nodes/s"]
			break
		}
	}
	if baseline <= 0 {
		return fmt.Errorf("no serial nodes/s record in %s", path)
	}
	printed := 0
	for _, rec := range b.Benchmarks {
		v, ok := rec.Metrics["nodes/s"]
		if !ok {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-50s %12.0f nodes/s %8.2fx\n", rec.Name, v, v/baseline); err != nil {
			return err
		}
		printed++
	}
	if printed == 0 {
		return fmt.Errorf("no nodes/s records in %s", path)
	}
	return nil
}

// compareFiles diffs two baselines: for every benchmark present in both
// (matched on Pkg+Name), every metric present in both is printed as
// old → new with the absolute and relative delta. Benchmarks or metrics
// present in only one file are listed, not silently dropped. Custom
// quality metrics diff like the rest: a stranded-power gap-pp row shows
// whether a change moved the online policy closer to or further from the
// FlexOffline optimum.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	load := func(path string) (*Baseline, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var b Baseline
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &b, nil
	}
	oldB, err := load(oldPath)
	if err != nil {
		return err
	}
	newB, err := load(newPath)
	if err != nil {
		return err
	}
	// Lead with both files' provenance so a diff is readable as "commit X
	// at T1 vs commit Y at T2", not just two anonymous file names.
	for _, side := range []struct {
		path string
		b    *Baseline
	}{{oldPath, oldB}, {newPath, newB}} {
		line := side.path
		if side.b.Commit != "" {
			line += " commit=" + side.b.Commit
		}
		if side.b.GeneratedAt != "" {
			line += " generated=" + side.b.GeneratedAt
		}
		fmt.Fprintln(w, line)
	}
	key := func(r Record) string { return r.Pkg + " " + r.Name }
	oldByKey := map[string]Record{}
	for _, r := range oldB.Benchmarks {
		oldByKey[key(r)] = r
	}
	matched := map[string]bool{}
	for _, nr := range newB.Benchmarks {
		or, ok := oldByKey[key(nr)]
		if !ok {
			fmt.Fprintf(w, "%-50s only in %s\n", nr.Name, newPath)
			continue
		}
		matched[key(nr)] = true
		units := make([]string, 0, len(or.Metrics))
		for unit := range or.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			ov := or.Metrics[unit]
			nv, ok := nr.Metrics[unit]
			if !ok {
				fmt.Fprintf(w, "%-50s %-14s only in %s\n", nr.Name, unit, oldPath)
				continue
			}
			rel := ""
			if math.Abs(ov) > 1e-12 {
				rel = fmt.Sprintf(" (%+.1f%%)", (nv-ov)/ov*100)
			}
			fmt.Fprintf(w, "%-50s %-14s %14.4g -> %14.4g  %+.4g%s\n",
				nr.Name, unit, ov, nv, nv-ov, rel)
		}
	}
	for _, or := range oldB.Benchmarks {
		if !matched[key(or)] {
			fmt.Fprintf(w, "%-50s only in %s\n", or.Name, oldPath)
		}
	}
	return nil
}

// restoreText re-emits the benchmark text benchstat consumes.
func restoreText(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	// Legacy single-package baselines carry no per-record Pkg; restore the
	// original single header block.
	multi := false
	for _, rec := range b.Benchmarks {
		if rec.Pkg != "" {
			multi = true
			break
		}
	}
	if !multi {
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := b.Env[key]; ok {
				if _, err := fmt.Fprintf(w, "%s: %s\n", key, v); err != nil {
					return err
				}
			}
		}
		for _, rec := range b.Benchmarks {
			if _, err := fmt.Fprintln(w, rec.Raw); err != nil {
				return err
			}
		}
		return nil
	}
	// Multi-package baselines: goos/goarch once, then a pkg/cpu header per
	// package section, matching `go test -bench` output across packages.
	for _, key := range []string{"goos", "goarch"} {
		if v, ok := b.Env[key]; ok {
			if _, err := fmt.Fprintf(w, "%s: %s\n", key, v); err != nil {
				return err
			}
		}
	}
	cur := ""
	for _, rec := range b.Benchmarks {
		if rec.Pkg != cur {
			cur = rec.Pkg
			if _, err := fmt.Fprintf(w, "pkg: %s\n", cur); err != nil {
				return err
			}
			if v, ok := b.Env["cpu"]; ok {
				if _, err := fmt.Fprintf(w, "cpu: %s\n", v); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w, rec.Raw); err != nil {
			return err
		}
	}
	return nil
}
