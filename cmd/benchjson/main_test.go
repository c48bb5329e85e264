package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sample = `goos: linux
goarch: amd64
pkg: flex
cpu: Intel(R) Xeon(R)
BenchmarkFigure6_UPSToleranceCurve-8   	     100	     11917 ns/op	     432 B/op	       9 allocs/op
BenchmarkFigure9_StrandedPower-8       	       1	1234567890 ns/op	       3.210 stranded_pct
PASS
ok  	flex	12.345s
`

func TestParseAndRestoreRoundTrip(t *testing.T) {
	b, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if b.Env["goos"] != "linux" || b.Env["pkg"] != "flex" {
		t.Errorf("env parsed wrong: %v", b.Env)
	}
	if len(b.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(b.Benchmarks))
	}
	r0 := b.Benchmarks[0]
	if r0.Name != "BenchmarkFigure6_UPSToleranceCurve-8" || r0.Iterations != 100 {
		t.Errorf("record 0: %+v", r0)
	}
	if r0.Metrics["ns/op"] != 11917 || r0.Metrics["allocs/op"] != 9 {
		t.Errorf("record 0 metrics: %v", r0.Metrics)
	}
	if b.Benchmarks[1].Metrics["stranded_pct"] != 3.210 {
		t.Errorf("custom unit lost: %v", b.Benchmarks[1].Metrics)
	}

	// Restore must reproduce the header and raw result lines verbatim.
	path := filepath.Join(t.TempDir(), "baseline.json")
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := restoreText(path, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"goos: linux",
		"BenchmarkFigure6_UPSToleranceCurve-8   \t     100\t     11917 ns/op\t     432 B/op\t       9 allocs/op",
		"stranded_pct",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("restored text missing %q:\n%s", want, out.String())
		}
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok flex 1s\n")); err == nil {
		t.Fatal("expected error for input without benchmark lines")
	}
}

func TestParseIgnoresMalformedLines(t *testing.T) {
	in := sample + "BenchmarkBroken-8 notanumber ns/op\n"
	b, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Benchmarks) != 2 {
		t.Fatalf("malformed line was parsed: %d records", len(b.Benchmarks))
	}
}

const multiPkgSample = `goos: linux
goarch: amd64
pkg: flex/internal/obs/tsdb
cpu: Intel(R) Xeon(R)
BenchmarkAppend-8          	30000000	        39.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkQueryRaw-8        	  500000	      2100 ns/op
PASS
ok  	flex/internal/obs/tsdb	1.234s
goos: linux
goarch: amd64
pkg: flex/internal/obs/slo
cpu: Intel(R) Xeon(R)
BenchmarkAuditTick-8       	  100000	     10500 ns/op
PASS
ok  	flex/internal/obs/slo	2.345s
`

// TestParseMultiPackage feeds output from a multi-package `go test -bench`
// run (one header block per package): each record must be attributed to the
// package section it appeared under, and -restore must re-emit one pkg
// header per section so benchstat sees distinct packages.
func TestParseMultiPackage(t *testing.T) {
	b, err := parse(strings.NewReader(multiPkgSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(b.Benchmarks))
	}
	wantPkg := []string{
		"flex/internal/obs/tsdb",
		"flex/internal/obs/tsdb",
		"flex/internal/obs/slo",
	}
	for i, rec := range b.Benchmarks {
		if rec.Pkg != wantPkg[i] {
			t.Errorf("record %d (%s): pkg %q, want %q", i, rec.Name, rec.Pkg, wantPkg[i])
		}
	}

	path := filepath.Join(t.TempDir(), "multi.json")
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := restoreText(path, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if n := strings.Count(got, "pkg: "); n != 2 {
		t.Errorf("restored text has %d pkg headers, want 2:\n%s", n, got)
	}
	tsdbIdx := strings.Index(got, "pkg: flex/internal/obs/tsdb")
	sloIdx := strings.Index(got, "pkg: flex/internal/obs/slo")
	tickIdx := strings.Index(got, "BenchmarkAuditTick")
	if tsdbIdx < 0 || sloIdx < 0 || tickIdx < 0 {
		t.Fatalf("restored text missing sections:\n%s", got)
	}
	if !(tsdbIdx < sloIdx && sloIdx < tickIdx) {
		t.Errorf("restored sections out of order (tsdb@%d slo@%d tick@%d):\n%s", tsdbIdx, sloIdx, tickIdx, got)
	}
}

const solverSample = `goos: linux
pkg: flex
BenchmarkSolverScaling/serial-8      	       1	   2363996 ns/op	      4231 nodes/s
BenchmarkSolverScaling/workers=1-8   	       1	    338744 ns/op	      8867 nodes/s
BenchmarkSolverScaling/workers=4-8   	       1	    306173 ns/op	      9807 nodes/s
PASS
`

func TestSpeedupTable(t *testing.T) {
	b, err := parse(strings.NewReader(solverSample))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "solver.json")
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := speedupTable(path, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "1.00x") {
		t.Errorf("serial row not normalized to 1.00x:\n%s", got)
	}
	if !strings.Contains(got, "2.32x") {
		t.Errorf("workers=4 speedup missing (want 9807/4231 = 2.32x):\n%s", got)
	}
	if n := strings.Count(got, "nodes/s"); n != 3 {
		t.Errorf("printed %d rows, want 3:\n%s", n, got)
	}
}

const onlineOld = `goos: linux
pkg: flex/internal/placement/online
BenchmarkOnlinePlacement/admit-8          2000	 19042 ns/op	 52515 decisions/s	 0 allocs/op
BenchmarkOnlinePlacement/stranded-gap-8   2000	259042 ns/op	 7.750 gap-pp
PASS
`

const onlineNew = `goos: linux
pkg: flex/internal/placement/online
BenchmarkOnlinePlacement/admit-8          2000	 15000 ns/op	 60000 decisions/s	 0 allocs/op
BenchmarkOnlinePlacement/stranded-gap-8   2000	250000 ns/op	 5.500 gap-pp
BenchmarkOnlinePlacement/extra-8          2000	  1000 ns/op
PASS
`

// TestCompareFiles: the -compare view diffs every shared metric of every
// shared benchmark and reports one-sided records instead of dropping
// them — BenchmarkOnlinePlacement's stranded-power gap-pp row is the
// motivating use.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		b, err := parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", onlineOld)
	newPath := write("new.json", onlineNew)
	var out bytes.Buffer
	if err := compareFiles(oldPath, newPath, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"gap-pp",
		"-2.25",    // 5.5 - 7.75 gap-pp delta
		"+7485",    // 60000 - 52515 decisions/s delta
		"(-29.0%)", // gap-pp relative change
		"only in",  // the one-sided extra-8 record
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q:\n%s", want, got)
		}
	}
}

func TestCompareFilesMissing(t *testing.T) {
	if err := compareFiles("/nonexistent/a.json", "/nonexistent/b.json", io.Discard); err == nil {
		t.Fatal("want error for missing files")
	}
}

func TestSpeedupTableNoSerial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	data, err := json.Marshal(&Baseline{Env: map[string]string{}, Benchmarks: []Record{
		{Name: "BenchmarkX-8", Iterations: 1, Metrics: map[string]float64{"ns/op": 5}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := speedupTable(path, io.Discard); err == nil {
		t.Fatal("want error when no serial nodes/s record exists")
	}
}

// TestProvenanceStamp checks that a freshly parsed baseline is stamped
// with a well-formed UTC capture time (and, inside a git checkout, the
// HEAD commit), and that -compare leads with both files' provenance.
func TestProvenanceStamp(t *testing.T) {
	b, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	provenance(b)
	if b.GeneratedAt == "" {
		t.Fatal("provenance left GeneratedAt empty")
	}
	if _, err := time.Parse(time.RFC3339, b.GeneratedAt); err != nil {
		t.Fatalf("GeneratedAt %q is not RFC 3339: %v", b.GeneratedAt, err)
	}

	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	b.Commit = "aaaa"
	writeBaseline(t, oldPath, b)
	b.Commit = "bbbb"
	writeBaseline(t, newPath, b)

	var out bytes.Buffer
	if err := compareFiles(oldPath, newPath, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		oldPath + " commit=aaaa generated=" + b.GeneratedAt,
		newPath + " commit=bbbb generated=" + b.GeneratedAt,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing provenance header %q:\n%s", want, got)
		}
	}
}

func writeBaseline(t *testing.T, path string, b *Baseline) {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
