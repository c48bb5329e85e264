package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"flex/internal/clock"
	"flex/internal/obs/slo"
)

// runWatch polls a running obs server's /healthz and /slo endpoints and
// prints one safety-status line per interval. New flight-recorder events
// are fetched incrementally via /events?since=<seq>, so each poll
// transfers only the tail that arrived since the previous one.
func runWatch(out io.Writer, baseURL string, every time.Duration, n int) error {
	base := strings.TrimRight(baseURL, "/")
	client := &http.Client{Timeout: 10 * time.Second}
	var clk clock.Clock = clock.Real{}
	var lastSeq uint64
	for i := 0; n <= 0 || i < n; i++ {
		if i > 0 {
			clk.Sleep(every)
		}
		line, seq, err := watchOnce(client, base, lastSeq)
		if err != nil {
			return err
		}
		lastSeq = seq
		if _, err := fmt.Fprintln(out, line); err != nil {
			return err
		}
	}
	return nil
}

// watchOnce performs one poll round and formats the status line.
func watchOnce(client *http.Client, base string, sinceSeq uint64) (line string, lastSeq uint64, err error) {
	var health slo.Health
	if err := getJSON(client, base+"/healthz", &health); err != nil {
		return "", sinceSeq, fmt.Errorf("healthz: %w", err)
	}
	var status slo.Status
	if err := getJSON(client, base+"/slo", &status); err != nil {
		return "", sinceSeq, fmt.Errorf("slo: %w", err)
	}

	// Incremental event tail. A server without a recorder serves [] —
	// the watch line just reports 0 new events.
	var events []struct {
		Seq  uint64 `json:"seq"`
		Type string `json:"type"`
	}
	url := base + "/events"
	if sinceSeq > 0 {
		url += fmt.Sprintf("?since=%d", sinceSeq)
	}
	if err := getJSON(client, url, &events); err != nil {
		return "", sinceSeq, fmt.Errorf("events: %w", err)
	}
	lastSeq = sinceSeq
	counts := map[string]int{}
	for _, e := range events {
		if e.Seq > lastSeq {
			lastSeq = e.Seq
		}
		counts[e.Type]++
	}

	breached := 0
	for _, o := range status.Objectives {
		if o.Breached {
			breached++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", health.State)
	if status.EpisodeOpen {
		fmt.Fprintf(&b, " episode=%d burn=%.0f%%", status.EpisodeID, status.BudgetBurn*100)
	}
	fmt.Fprintf(&b, " objectives=%d/%d ok probe=%d/%d clean",
		len(status.Objectives)-breached, len(status.Objectives),
		status.Probe.CleanRounds, status.Probe.Rounds)
	fmt.Fprintf(&b, " events+%d", len(events))
	for _, t := range []string{"slo-breach", "slo-recover", "probe-fail"} {
		if c := counts[t]; c > 0 {
			fmt.Fprintf(&b, " %s×%d", t, c)
		}
	}
	// Per-stage critical-path maxima against their 10s-budget carves
	// (only when the server's auditor is bound to stage metrics). "!"
	// marks a stage over its carve.
	if len(status.Stages) > 0 {
		parts := make([]string, 0, len(status.Stages))
		for _, st := range status.Stages {
			s := fmt.Sprintf("%s:%.0fms", st.Stage, st.Max*1000)
			if st.OverBudget {
				s += "!"
			}
			parts = append(parts, s)
		}
		fmt.Fprintf(&b, " stages=%s", strings.Join(parts, ","))
	}
	if health.State != slo.StateReady && len(health.Reasons) > 0 {
		fmt.Fprintf(&b, "  [%s]", health.Reasons[0])
	}
	return b.String(), lastSeq, nil
}

func getJSON(client *http.Client, url string, dst interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	// /healthz deliberately serves 503 with a JSON body when unsafe;
	// decode any JSON response regardless of status.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("%s: status %d: %w", url, resp.StatusCode, err)
	}
	return nil
}
