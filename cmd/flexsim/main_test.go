package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFeasibility(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "feasibility"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"75.0% utilization", "nines"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunCostAndDesigns(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "cost"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "$213M") {
		t.Errorf("cost output missing savings:\n%s", out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-experiment", "designs"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4N/3 (paper)") {
		t.Errorf("designs output missing 4N/3:\n%s", out.String())
	}
}

func TestRunMonteCarlo(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "montecarlo"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no-action availability") {
		t.Errorf("montecarlo output:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-experiment", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBadFlag(t *testing.T) {
	// ContinueOnError turns flag errors into returns, not exits.
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("expected flag error")
	}
}

func TestRunFigure12WithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 sweep is slow")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "fig12", "-samples", "1", "-csvdir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"Extreme-1", "Extreme-2", "Realistic-1", "Realistic-2"} {
		if !strings.Contains(out.String(), sc+":") {
			t.Errorf("missing scenario %s", sc)
		}
		data, err := os.ReadFile(filepath.Join(dir, "figure12-"+sc+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "scenario,utilization") {
			t.Errorf("%s csv header wrong", sc)
		}
	}
}

// TestRunRecordWriteErrorFails: an event log the device cannot hold
// fails the run instead of being reported as recorded.
func TestRunRecordWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-experiment", "episode", "-record", "/dev/full"}, &out)
	if err == nil || !strings.Contains(err.Error(), "writing event log") {
		t.Fatalf("run = %v, want the event log's write error", err)
	}
	if strings.Contains(out.String(), "recorded") {
		t.Fatalf("a truncated log was reported as recorded:\n%s", out.String())
	}
}
