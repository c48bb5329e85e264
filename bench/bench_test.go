package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"flex/internal/clock"
)

// benchmarkJSON mirrors BENCHMARK.json, which has exactly these keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON is the schema-drift guard: the tables this
// program reports from and the contract file the driver reads must name
// the same workloads and metrics, inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloadSpecs[i].Name || w.Why != workloadSpecs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloadSpecs[i].Name, workloadSpecs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	var driver []metricSpec
	for _, m := range endToEnd {
		if m.Driver {
			driver = append(driver, m)
		}
	}
	if len(b.EndToEnd) != len(driver) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d driver rows in the program", len(b.EndToEnd), len(driver))
	}
	haveSetup := false
	for i, m := range b.EndToEnd {
		name("end_to_end", m.Name)
		d := driver[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %s: bound %v unit %q", m.Name, m.Bound, m.Unit)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("end_to_end lacks setup_s")
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name("per_layer", m.Name)
		l := perLayer[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %s %s %s", i, m, l.Name, l.Unit, l.Better)
		}
	}
	for _, m := range endToEnd {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end row %q (%q) is outside the contract's alphabet", m.Name, m.Unit)
		}
	}
}

func tinyEnv(seed int64) env {
	return env{clk: clock.Real{}, sc: scales["tiny"], seed: seed}
}

// tinyRuns caches one end-to-end tiny run per (workload, seed, nth
// request), so the tests share the baseline set.
type tinyKey struct {
	workload string
	seed     int64
	nth      int
}

var tinyRuns = map[tinyKey]*result{}

func tinyRun(t *testing.T, workload string, seed int64, nth int) *result {
	t.Helper()
	k := tinyKey{workload, seed, nth}
	if r, ok := tinyRuns[k]; ok {
		return r
	}
	res, err := runWorkload(context.Background(), tinyEnv(seed), workload, 1, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	tinyRuns[k] = res
	return res
}

func checkValue(t *testing.T, where, name string, v value) {
	t.Helper()
	if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
		t.Errorf("%s: %s = %v is not finite", where, name, v.Value)
	}
	if !unitRE.MatchString(v.Unit) {
		t.Errorf("%s: %s has unit %q", where, name, v.Unit)
	}
}

// TestEndToEndEmitsTheTable runs every workload at tiny size: each emits
// exactly its rows of the end-to-end table, finite and with units, no
// operation fails, and the driver's line carries exactly the rows
// BENCHMARK.json names.
func TestEndToEndEmitsTheTable(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloadSpecs {
		res := tinyRun(t, w.Name, 1, 0)
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if ok != m.appliesTo(w.Name) {
				t.Errorf("%s: %s emitted = %v, applies = %v", w.Name, m.Name, ok, m.appliesTo(w.Name))
			}
			if ok {
				checkValue(t, w.Name, m.Name, v)
				if v.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, the table says %q", w.Name, m.Name, v.Unit, m.Unit)
				}
			}
		}
		for name := range res.Metrics {
			known := false
			for _, m := range endToEnd {
				known = known || m.Name == name
			}
			if !known {
				t.Errorf("%s emits %s, which the end-to-end table does not name", w.Name, name)
			}
		}
		line := driverLine(res)
		if len(line.Metrics) != len(b.EndToEnd) {
			t.Errorf("%s: driver line has %d metrics, BENCHMARK.json %d", w.Name, len(line.Metrics), len(b.EndToEnd))
		}
		for _, m := range b.EndToEnd {
			if v, ok := line.Metrics[m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: driver line lacks a positive %s", w.Name, m.Name)
			}
		}
	}
}

// TestTracedRunEmitsEveryLayer: the traced run of every workload emits
// every per-layer metric BENCHMARK.json names and nothing else, passes its
// checks (the traced drivers must shed in the black boxes' virtual time),
// and writes its spans.
func TestTracedRunEmitsEveryLayer(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadSpecs {
		res, err := runTraced(context.Background(), tinyEnv(1), w.Name, 1, dir, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: traced run failed %d checks: %v", w.Name, res.Failed, res.Failures)
		}
		for _, l := range perLayer {
			v, ok := res.Metrics[l.Name]
			if !ok {
				t.Errorf("%s: traced run lacks %s", w.Name, l.Name)
				continue
			}
			checkValue(t, w.Name, l.Name, v)
			if v.Unit != l.Unit {
				t.Errorf("%s: %s has unit %q, the table says %q", w.Name, l.Name, v.Unit, l.Unit)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: traced run emits %d metrics, the table names %d", w.Name, len(res.Metrics), len(perLayer))
		}
		for _, must0 := range []string{"telemetry.dropped_samples", "replay.mismatched"} {
			if res.Metrics[must0].Value != 0 {
				t.Errorf("%s: %s = %v, must be 0", w.Name, must0, res.Metrics[must0].Value)
			}
		}
		if st, err := os.Stat(filepath.Join(dir, "spans-"+w.Name+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file missing or empty (%v)", w.Name, err)
		}
	}
}

// TestDeterminism: the same seed gives the same simulated outcome, bit
// for bit; another seed gives other inputs and still passes every check.
func TestDeterminism(t *testing.T) {
	exactNames := []string{"shed_virtual_s", "detect_virtual_s", "stranded_pct", "online_gap_pp", "admit_ratio"}
	for _, w := range workloadSpecs {
		a, b, c := tinyRun(t, w.Name, 1, 0), tinyRun(t, w.Name, 1, 1), tinyRun(t, w.Name, 2, 0)
		if a.Fingerprint != b.Fingerprint || a.InputHash != b.InputHash {
			t.Errorf("%s: same seed, fingerprints %s/%s and %s/%s", w.Name, a.InputHash, a.Fingerprint, b.InputHash, b.Fingerprint)
		}
		for _, name := range exactNames {
			if va, ok := a.Metrics[name]; ok && va.Value != b.Metrics[name].Value {
				t.Errorf("%s: same seed, %s = %v and %v", w.Name, name, va.Value, b.Metrics[name].Value)
			}
		}
		if c.InputHash == a.InputHash {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs (%s)", w.Name, a.InputHash)
		}
		if c.Failed != 0 {
			t.Errorf("%s: seed 2 failed %d of %d operations: %v", w.Name, c.Failed, c.Attempted, c.Failures)
		}
	}

	// The solver's counts, from the ladder's benchmark-owned milp.Metrics.
	count := func() (nodes, pivots float64) {
		res := &result{Metrics: map[string]value{}}
		l := &ladder{env: tinyEnv(1), div: scales["tiny"].LadderScale, out: res.Metrics}
		if err := l.placement(context.Background(), res); err != nil {
			t.Fatal(err)
		}
		return res.Metrics["milp.nodes_total"].Value, res.Metrics["lp.pivots_total"].Value
	}
	n1, p1 := count()
	n2, p2 := count()
	if n1 != n2 || p1 != p2 || n1 == 0 || p1 == 0 {
		t.Errorf("milp.nodes_total %v/%v, lp.pivots_total %v/%v: want equal and positive", n1, n2, p1, p2)
	}
}

// TestDriverFlags: "--trace 0" is the driver's spelling; a bare -trace
// stays a switch.
func TestDriverFlags(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace", "0"})
	want := []string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace=0"}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := joinTraceValue([]string{"-trace", "-workload", "x"}); len(got) != 3 || got[0] != "-trace" {
		t.Fatalf("bare -trace rewritten: %v", got)
	}
}
