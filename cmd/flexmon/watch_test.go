package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flex/internal/obs"
	"flex/internal/obs/slo"
)

// TestWatchAgainstLiveRun drives a quick emulation with -listen, then
// points `flexmon -watch` at the live surface: every poll line must
// carry a health verdict, objective and probe counts, and the
// incremental event tail.
func TestWatchAgainstLiveRun(t *testing.T) {
	pr, pw := io.Pipe()
	errCh := make(chan error, 1)
	go func() {
		err := run(context.Background(), []string{"-quick", "-listen", "127.0.0.1:0"}, pw)
		_ = pw.CloseWithError(err)
		errCh <- err
	}()

	br := bufio.NewReader(pr)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v", err)
	}
	const prefix = "obs: listening on http://"
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("first line %q, want prefix %q", line, prefix)
	}
	addr := strings.Fields(strings.TrimPrefix(strings.TrimSpace(line), prefix))[0]

	var watchOut strings.Builder
	if err := run(context.Background(), []string{"-watch", "-url", "http://" + addr, "-every", "10ms", "-n", "3"}, &watchOut); err != nil {
		t.Fatalf("-watch: %v\n%s", err, watchOut.String())
	}
	lines := strings.Split(strings.TrimSpace(watchOut.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("watch printed %d lines, want 3:\n%s", len(lines), watchOut.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "objectives=") || !strings.Contains(l, "probe=") || !strings.Contains(l, "events+") {
			t.Fatalf("watch line missing fields: %q", l)
		}
		state := strings.Fields(l)[0]
		switch state {
		case "ready", "degraded", "unsafe":
		default:
			t.Fatalf("watch line leads with %q, want a health state: %q", state, l)
		}
	}

	// Keep polling while the emulation runs until the per-stage latency
	// summary shows up — the auditor exports Status.Stages once the run
	// binds it to the controllers' stage histograms. A poll error means
	// the run finished and the server went away; stop then.
	sawStages := false
	for i := 0; i < 2000 && !sawStages; i++ {
		var one strings.Builder
		if err := run(context.Background(), []string{"-watch", "-url", "http://" + addr, "-n", "1"}, &one); err != nil {
			break
		}
		sawStages = strings.Contains(one.String(), "stages=")
	}
	if !sawStages {
		t.Errorf("no watch poll carried a stages= summary")
	}

	// Drain the emulation and make sure it succeeded end to end.
	if _, err := io.ReadAll(br); err != nil {
		t.Fatalf("draining run output: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestWatchStageSummaryLine pins the stage-summary formatting against a
// canned /slo payload: maxima in milliseconds, timeline order preserved,
// "!" marking a stage over its budget carve.
func TestWatchStageSummaryLine(t *testing.T) {
	status := slo.Status{
		Stages: []slo.StageStatus{
			{StageDigest: obs.StageDigest{Stage: "sample", Count: 3, Sum: 0.12, Max: 0.05}, BudgetSeconds: 3},
			{StageDigest: obs.StageDigest{Stage: "act", Count: 1, Sum: 1.25, Max: 1.25}, BudgetSeconds: 1, OverBudget: true},
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(slo.Health{State: slo.StateReady})
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(status)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("[]"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var out strings.Builder
	if err := run(context.Background(), []string{"-watch", "-url", srv.URL, "-n", "1"}, &out); err != nil {
		t.Fatalf("-watch: %v\n%s", err, out.String())
	}
	line := strings.TrimSpace(out.String())
	const want = "stages=sample:50ms,act:1250ms!"
	if !strings.Contains(line, want) {
		t.Fatalf("watch line %q missing %q", line, want)
	}
}
