package controller

import (
	"context"
	"fmt"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// overdrawFeed is the standard failure snapshot used by the metrics tests:
// UPS 0 dead, survivors above limit−buffer.
func overdrawFeed(h *harness) {
	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
}

func clearFeed(h *harness) {
	h.feed([]power.Watts{60 * power.KW, 70 * power.KW, 70 * power.KW, 70 * power.KW})
}

func counterValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshots() {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestStepOutcomePlannedSemantics pins down the documented Planned
// contract: nil without overdraw, non-nil on a fresh-telemetry overdraw,
// and nil again on an overdraw round that defers on stale telemetry.
func TestStepOutcomePlannedSemantics(t *testing.T) {
	h := newHarness(t)
	reg := obs.NewRegistry()
	c := h.controller("ctl-1")
	c.cfg.Metrics = NewMetrics(reg)

	// Case 1: no overdraw → Planned nil.
	h.feed([]power.Watts{80 * power.KW, 80 * power.KW, 80 * power.KW, 80 * power.KW})
	out := c.StepContext(context.Background())
	if out.Overdraw || out.Planned != nil {
		t.Fatalf("no-overdraw round: %+v, want Overdraw=false Planned=nil", out)
	}

	// Case 2: overdraw on fresh telemetry → Planned non-nil and enforced.
	overdrawFeed(h)
	h.clk.Advance(2 * time.Second)            // measurement is now older than "now"…
	out = c.StepContext(context.Background()) // …but nothing was enforced yet, so it is not stale
	if !out.Overdraw || len(out.Planned) == 0 {
		t.Fatalf("overdraw round: %+v, want Overdraw=true and planned actions", out)
	}
	if out.Enforced != len(out.Planned) {
		t.Fatalf("enforced %d of %d planned", out.Enforced, len(out.Planned))
	}

	// Case 3: overdraw persists but the snapshot predates the enforcement
	// → the round defers: Overdraw=true with Planned nil.
	out = c.StepContext(context.Background())
	if !out.Overdraw || out.Planned != nil {
		t.Fatalf("stale round: %+v, want Overdraw=true Planned=nil", out)
	}
	if got := counterValue(t, reg, "flex_controller_stale_skips_total"); got != 1 {
		t.Errorf("stale skips = %v, want 1", got)
	}
}

// TestControllerShedLatencyExactUnderVirtualClock drives one overdraw
// episode with explicit clock advances and asserts the histograms saw the
// exact durations the virtual clock dictates.
func TestControllerShedLatencyExactUnderVirtualClock(t *testing.T) {
	h := newHarness(t)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8)
	c := h.controller("ctl-1")
	c.cfg.Metrics = NewMetrics(reg)
	c.cfg.Tracer = tracer

	// Detection and first enforcement happen in the same round: with no
	// actuation latency modeled the first-action latency is exactly 0.
	overdrawFeed(h)
	h.clk.Advance(2 * time.Second)
	out := c.StepContext(context.Background())
	if out.Enforced == 0 {
		t.Fatal("setup: nothing enforced")
	}

	// 3 virtual seconds later the overdraw clears: the episode closes and
	// shed latency = lastEnforceAt − overdrawSince = 0 (both in round one).
	h.clk.Advance(3 * time.Second)
	clearFeed(h)
	out = c.StepContext(context.Background())
	if out.Overdraw {
		t.Fatal("overdraw should have cleared")
	}

	var shed, first obs.Snapshot
	for _, s := range reg.Snapshots() {
		switch s.Name {
		case "flex_controller_shed_latency_seconds":
			shed = s
		case "flex_controller_first_action_latency_seconds":
			first = s
		}
	}
	if shed.Count != 1 || first.Count != 1 {
		t.Fatalf("histogram counts: shed=%d first=%d, want 1 and 1", shed.Count, first.Count)
	}
	if shed.Sum != 0 || first.Sum != 0 {
		t.Errorf("latency sums: shed=%v first=%v, want exactly 0 (same virtual instant)", shed.Sum, first.Sum)
	}
	if got := counterValue(t, reg, "flex_controller_overdraw_episodes_total"); got != 1 {
		t.Errorf("episodes = %v, want 1", got)
	}

	// The overdraw round produced a trace with all three pipeline stages.
	traces := tracer.Recent()
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	stages := map[string]bool{}
	for _, sp := range traces[len(traces)-1].Spans {
		stages[sp.Name] = true
	}
	for _, want := range []string{"detect", "plan", "act"} {
		if !stages[want] {
			t.Errorf("trace missing %q span; got %v", want, traces[len(traces)-1].Spans)
		}
	}
}

// TestRecordStepZeroAllocations keeps the per-round metrics update off the
// allocator: the control loop must not pay for its own instrumentation.
func TestRecordStepZeroAllocations(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	out := &StepOutcome{
		Overdraw: true,
		Planned: []PlannedAction{
			{Rack: "r1", Kind: Shutdown},
			{Rack: "r2", Kind: Throttle},
		},
		Enforced:      2,
		EnforceErrors: 1,
		Insufficient:  true,
		Restored:      3,
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.recordStep(out)
		m.incEpisode()
		m.incStaleSkip()
		m.incPlanError()
		m.observeFirstAction(time.Second)
		m.observeShed(9 * time.Second)
	})
	if allocs != 0 {
		t.Fatalf("metrics hot path allocates %.1f times per step, want 0", allocs)
	}
}

// TestIdleStepAllocatesIndependentOfRacks holds the steady-state round to
// no allocation at all, however many racks the controller manages: the UPS
// readings and the inactive set live on the step's stack, and the rack view,
// the acted set and the inactive map are plan inputs, built only when a
// round plans.
func TestIdleStepAllocatesIndependentOfRacks(t *testing.T) {
	idleAllocs := func(n int) float64 {
		h := newHarness(t)
		h.racks = nil
		for i := 0; i < n; i++ {
			r := testRacks(h.topo)[i%len(h.topo.Pairs)*3]
			r.ID = fmt.Sprintf("rack-%04d", i)
			h.racks = append(h.racks, r)
		}
		reg := obs.NewRegistry()
		cfg := h.controller("ctl-1").cfg
		cfg.Metrics = NewMetrics(reg)
		cfg.Stages = obs.NewStageMetrics(reg)
		cfg.Tracer = obs.NewTracer(8)
		cfg.Recorder = recorder.New(64)
		c := New(cfg)
		h.feed([]power.Watts{60 * power.KW, 70 * power.KW, 70 * power.KW, 70 * power.KW})
		ctx := context.Background()
		allocs := testing.AllocsPerRun(100, func() {
			if out := c.StepContext(ctx); out.Overdraw || out.Restored != 0 {
				t.Fatalf("idle step acted: %+v", out)
			}
		})
		if got := h.rackView.Count(); got != n {
			t.Fatalf("rack view holds %d racks, want %d", got, n)
		}
		return allocs
	}
	small, large := idleAllocs(10), idleAllocs(1000)
	if small != large {
		t.Errorf("idle StepContext allocates %v times with 10 racks, %v with 1000", small, large)
	}
	if large != 0 {
		t.Errorf("idle StepContext allocates %v times per round, want 0", large)
	}
}
