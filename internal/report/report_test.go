package report

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"flex/internal/emu"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/sim"
	"flex/internal/stats"
)

func TestWritePolicyBoxes(t *testing.T) {
	var buf bytes.Buffer
	rows := []PolicyRow{
		{Policy: "Random", Stranded: stats.Box{Min: 1, P25: 2, Median: 3, P75: 4, Max: 5},
			Imbalance: stats.Box{Min: 6, P25: 7, Median: 8, P75: 9, Max: 10}},
	}
	if err := WritePolicyBoxes(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "policy,stranded_min") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Random,1.0000,2.0000,3.0000") {
		t.Fatalf("row = %q", lines[1])
	}
}

// TestWriteMetricsSummaryExactHistograms: a histogram row carries its exact
// count, sum and mean; a stage observation far inside the first bucket reads
// as itself, not as a bucket midpoint.
func TestWriteMetricsSummaryExactHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("flex_test_stage_seconds", "", []float64{0.05, 1})
	h.Observe(0)
	h.Observe(0.002)
	var buf bytes.Buffer
	if err := WriteMetricsSummary(&buf, reg); err != nil {
		t.Fatal(err)
	}
	want := "metric,labels,kind,value,count,sum,mean\nflex_test_stage_seconds,,histogram,,2,0.0020,0.0010\n"
	if got := buf.String(); got != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteFigure12(t *testing.T) {
	var buf bytes.Buffer
	pts := []sim.Figure12Point{{
		Utilization: 0.8,
		Impacted:    stats.MeanStd{Mean: 10, Std: 1},
		ShutDown:    stats.MeanStd{Mean: 20, Std: 2},
		Throttled:   stats.MeanStd{Mean: 30, Std: 3},
	}}
	if err := WriteFigure12(&buf, "Realistic-1", pts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Realistic-1,0.8000,10.0000,1.0000,20.0000") {
		t.Fatalf("csv = %q", out)
	}
}

func TestWriteFigure13(t *testing.T) {
	sc := impact.Realistic1()
	res, err := emu.Run(context.Background(), emu.Config{
		Scenario:  &sc,
		Tick:      2 * time.Second,
		FailAt:    2 * time.Minute,
		RecoverAt: 4 * time.Minute,
		Duration:  6 * time.Minute,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFigure13(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Series)+1 {
		t.Fatalf("lines = %d, want %d", len(lines), len(res.Series)+1)
	}
	if !strings.HasPrefix(lines[0], "t_seconds,stage,ups1_watts") {
		t.Fatalf("header = %q", lines[0])
	}
	if err := WriteFigure13(&buf, &emu.Result{}); err == nil {
		t.Fatal("expected error for empty series")
	}
}
