package emu

import (
	"context"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/power"
)

// quickObsConfig compresses the timeline like flexmon -quick so the test
// stays fast; the virtual clock makes every recorded latency exact.
func quickObsConfig(reg *obs.Registry, tracer *obs.Tracer) Config {
	return Config{
		Tick:      time.Second,
		FailAt:    4 * time.Minute,
		RecoverAt: 7 * time.Minute,
		Duration:  10 * time.Minute,
		Obs:       reg,
		Tracer:    tracer,
	}
}

func findSnapshot(t *testing.T, reg *obs.Registry, name string) obs.Snapshot {
	t.Helper()
	for _, s := range reg.Snapshots() {
		if s.Name == name && len(s.Labels) == 0 {
			return s
		}
	}
	t.Fatalf("metric %s not found in registry", name)
	return obs.Snapshot{}
}

// TestEmulationShedLatencyWithinBudget injects the §V-C UPS failure under a
// virtual clock and asserts, from the shed-latency histogram the
// controllers populated, that every detection→enforcement episode finished
// inside the 10-second UPS overload tolerance.
func TestEmulationShedLatencyWithinBudget(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	res, err := Run(context.Background(), quickObsConfig(reg, tracer))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outage {
		t.Fatal("emulation suffered a cascading outage")
	}

	shed := findSnapshot(t, reg, "flex_controller_shed_latency_seconds")
	if shed.Count == 0 {
		t.Fatal("shed-latency histogram recorded no episodes")
	}
	// Latencies are not negative, so a total inside the budget puts every
	// episode inside it.
	if budget := power.FlexLatencyBudget.Seconds(); shed.Sum > budget {
		t.Errorf("shed latency: %d episodes took %.2fs in all, more than the %.0fs budget",
			shed.Count, shed.Sum, budget)
	}

	first := findSnapshot(t, reg, "flex_controller_first_action_latency_seconds")
	if first.Count == 0 {
		t.Error("first-action latency histogram recorded nothing")
	}

	episodes := findSnapshot(t, reg, "flex_controller_overdraw_episodes_total")
	if episodes.Value < 1 {
		t.Errorf("overdraw episodes = %v, want >= 1", episodes.Value)
	}
	enforced := findSnapshot(t, reg, "flex_controller_enforced_total")
	if enforced.Value < 1 {
		t.Errorf("enforced actions = %v, want >= 1", enforced.Value)
	}

	// The detect→plan→act pipeline must show up in the trace ring with all
	// three stages on at least one acted trace.
	traces := tracer.Recent()
	if len(traces) == 0 {
		t.Fatal("tracer recorded no overdraw traces")
	}
	found := false
	for _, tr := range traces {
		stages := map[string]bool{}
		for _, sp := range tr.Spans {
			stages[sp.Name] = true
		}
		if stages["detect"] && stages["plan"] && stages["act"] {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no trace carries detect+plan+act spans; got %d traces", len(traces))
	}
}

// TestEmulationMetricsDisabledByDefault keeps the nil-Metrics path honest:
// a run without a registry must behave identically and not panic.
func TestEmulationMetricsDisabledByDefault(t *testing.T) {
	res, err := Run(context.Background(), quickObsConfig(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outage {
		t.Fatal("emulation suffered a cascading outage")
	}
}
