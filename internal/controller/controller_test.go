package controller

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/impact"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
)

// harness wires views and an actuator for a test room.
type harness struct {
	topo     *power.Topology
	racks    []ManagedRack
	upsView  *telemetry.LatestPower
	rackView *telemetry.LatestPower
	mgr      *rackmgr.Manager
	clk      *clock.Virtual
	now      time.Time
	// stamp, when set, completes the ingest timeline of a UPS sample feed
	// is about to install.
	stamp func(*telemetry.Sample)
}

func newHarness(t *testing.T) *harness {
	topo := testRoom(t)
	racks := testRacks(topo)
	ids := make([]string, len(racks))
	for i, r := range racks {
		ids[i] = r.ID
	}
	clk := clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	return &harness{
		topo:     topo,
		racks:    racks,
		upsView:  telemetry.NewLatestPower(),
		rackView: telemetry.NewLatestPower(),
		mgr:      rackmgr.NewManager(clk, ids),
		clk:      clk,
		now:      clk.Now(),
	}
}

// feed publishes UPS and rack power into the views.
func (h *harness) feed(ups []power.Watts) {
	h.now = h.now.Add(time.Second)
	for u, w := range ups {
		s := telemetry.Sample{Device: h.topo.UPSes[u].Name, Power: w, Valid: true, MeasuredAt: h.now}
		if h.stamp != nil {
			h.stamp(&s)
		}
		h.upsView.Update(s)
	}
	for _, r := range h.racks {
		st, cap, _ := h.mgr.State(r.ID)
		p := r.Allocated
		switch st {
		case rackmgr.Off:
			p = 0
		case rackmgr.Throttled:
			p = cap
		}
		h.rackView.Update(telemetry.Sample{
			Device: r.ID, Power: p, Valid: true, MeasuredAt: h.now,
		})
	}
}

func (h *harness) controller(name string) *Controller {
	return New(Config{
		Name:     name,
		Clock:    h.clk,
		Topo:     h.topo,
		Racks:    h.racks,
		UPSView:  h.upsView,
		RackView: h.rackView,
		Actuator: h.mgr,
		Scenario: impact.Realistic1(),
		Buffer:   power.KW,
	})
}

func TestControllerEnforcesOnOverdraw(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")

	// Normal operation: no actions.
	h.feed([]power.Watts{80 * power.KW, 80 * power.KW, 80 * power.KW, 80 * power.KW})
	out := c.StepContext(context.Background())
	if out.Overdraw || out.Enforced != 0 {
		t.Fatalf("normal operation acted: %+v", out)
	}

	// UPS 0 fails; survivors overdraw.
	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	out = c.StepContext(context.Background())
	if !out.Overdraw {
		t.Fatal("overdraw not detected")
	}
	if out.Enforced == 0 || out.Enforced != len(out.Planned) {
		t.Fatalf("enforced %d of %d planned", out.Enforced, len(out.Planned))
	}
	if out.Insufficient {
		t.Fatal("plan should be sufficient")
	}
	// The acted racks really changed state.
	for _, a := range out.Planned {
		st, _, err := h.mgr.State(a.Rack)
		if err != nil {
			t.Fatal(err)
		}
		switch a.Kind {
		case Shutdown:
			if st != rackmgr.Off {
				t.Fatalf("rack %s = %v, want Off", a.Rack, st)
			}
		case Throttle:
			if st != rackmgr.Throttled {
				t.Fatalf("rack %s = %v, want Throttled", a.Rack, st)
			}
		}
	}
	if len(c.ActedRacks()) != out.Enforced {
		t.Fatalf("acted bookkeeping: %d vs %d", len(c.ActedRacks()), out.Enforced)
	}
}

func TestControllerRestoresAfterRecovery(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")
	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	out := c.StepContext(context.Background())
	if out.Enforced == 0 {
		t.Fatal("setup: no enforcement")
	}
	// UPS restored; loads drop (shaved power removed from measurement).
	h.feed([]power.Watts{60 * power.KW, 70 * power.KW, 70 * power.KW, 70 * power.KW})
	out = c.StepContext(context.Background())
	if out.Restored == 0 {
		t.Fatalf("no restore after recovery: %+v", out)
	}
	if len(c.ActedRacks()) != 0 {
		t.Fatalf("acted racks remain: %v", c.ActedRacks())
	}
	for _, r := range h.racks {
		st, _, _ := h.mgr.State(r.ID)
		if st != rackmgr.On {
			t.Fatalf("rack %s = %v after recovery, want On", r.ID, st)
		}
	}
}

// TestConcurrentSteps runs one controller's StepContext from several
// goroutines at once through an idle spell, an overdraw and a recovery
// (run it under -race): a round's UPS snapshot lives on its own stack and
// everything the rounds share is behind the controller's mutex, so the
// rounds interleave freely and still count every step, shed, and restore
// every rack they acted on.
func TestConcurrentSteps(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")
	const workers, rounds = 4, 50
	steps := func(phase string, check func(StepOutcome) string) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if msg := check(c.StepContext(context.Background())); msg != "" {
						t.Errorf("%s: %s", phase, msg)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	h.feed([]power.Watts{60 * power.KW, 70 * power.KW, 70 * power.KW, 70 * power.KW})
	steps("idle", func(out StepOutcome) string {
		if out.Overdraw || out.Enforced != 0 || out.Restored != 0 {
			return fmt.Sprintf("an idle round acted: %+v", out)
		}
		return ""
	})
	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	steps("overdraw", func(out StepOutcome) string {
		if !out.Overdraw || out.EnforceErrors != 0 {
			return fmt.Sprintf("an overdraw round missed it or failed to enforce: %+v", out)
		}
		return ""
	})
	if len(c.ActedRacks()) == 0 {
		t.Fatal("no round acted on the overdraw")
	}
	h.feed([]power.Watts{60 * power.KW, 70 * power.KW, 70 * power.KW, 70 * power.KW})
	steps("recovery", func(out StepOutcome) string {
		if out.Overdraw || out.EnforceErrors != 0 {
			return fmt.Sprintf("a recovery round: %+v", out)
		}
		return ""
	})
	if got, want := c.Steps(), 3*workers*rounds; got != want {
		t.Errorf("Steps() = %d, want %d", got, want)
	}
	if acted := c.ActedRacks(); len(acted) != 0 {
		t.Errorf("racks still acted on after recovery: %v", acted)
	}
	for _, r := range h.racks {
		if st, _, _ := h.mgr.State(r.ID); st != rackmgr.On {
			t.Errorf("rack %s = %v after recovery, want On", r.ID, st)
		}
	}
}

func TestControllerDoesNotRestoreWithoutHeadroom(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")
	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	if out := c.StepContext(context.Background()); out.Enforced == 0 {
		t.Fatal("setup: no enforcement")
	}
	// UPS back, but loads so high that restoring would re-overdraw.
	h.feed([]power.Watts{97 * power.KW, 97 * power.KW, 97 * power.KW, 97 * power.KW})
	out := c.StepContext(context.Background())
	if out.Restored != 0 {
		t.Fatalf("restored without headroom: %+v", out)
	}
}

func TestControllerTreatsMissingUPSDataAsFull(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")
	// Feed only rack data; UPS view empty → assume capacity → overdraw.
	h.feed(nil)
	out := c.StepContext(context.Background())
	if !out.Overdraw {
		t.Fatal("missing UPS telemetry must be treated as worst case")
	}
}

func TestMultiPrimaryControllersConverge(t *testing.T) {
	h := newHarness(t)
	c1 := h.controller("ctl-1")
	c2 := h.controller("ctl-2")
	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	out1 := c1.StepContext(context.Background())
	out2 := c2.StepContext(context.Background()) // same snapshot: same (idempotent) actions
	if out1.Enforced == 0 || out2.Enforced == 0 {
		t.Fatal("both primaries should act")
	}
	// The union of state changes is consistent: every acted rack is
	// Off or Throttled, and duplicate actions did not error.
	if out1.EnforceErrors != 0 || out2.EnforceErrors != 0 {
		t.Fatalf("enforce errors: %d, %d", out1.EnforceErrors, out2.EnforceErrors)
	}
	// Both saw the same snapshot, so the plans agree (deterministic).
	if len(out1.Planned) != len(out2.Planned) {
		t.Fatalf("plans diverged: %d vs %d", len(out1.Planned), len(out2.Planned))
	}
	for i := range out1.Planned {
		if out1.Planned[i].Rack != out2.Planned[i].Rack {
			t.Fatalf("plan %d differs: %s vs %s", i, out1.Planned[i].Rack, out2.Planned[i].Rack)
		}
	}
}

func TestControllerEnforceErrorsSurface(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")
	// Break every rack's management path.
	for _, r := range h.racks {
		_ = h.mgr.SetReachable(r.ID, false)
	}
	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	out := c.StepContext(context.Background())
	if out.EnforceErrors == 0 || out.Enforced != 0 {
		t.Fatalf("expected enforcement failures: %+v", out)
	}
	if len(c.ActedRacks()) != 0 {
		t.Fatal("failed actions must not be recorded as acted")
	}
}

func TestControllerPartialRestore(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")
	// Big failover: lots of racks acted.
	h.feed([]power.Watts{0, 115 * power.KW, 115 * power.KW, 115 * power.KW})
	out := c.StepContext(context.Background())
	if out.Enforced < 3 {
		t.Fatalf("setup: only %d actions", out.Enforced)
	}
	acted := len(c.ActedRacks())
	// UPS back but load still highish: only some racks fit back under
	// limit−buffer. Headroom = 4×(99kW−92kW) = 28kW total.
	h.feed([]power.Watts{92 * power.KW, 92 * power.KW, 92 * power.KW, 92 * power.KW})
	out = c.StepContext(context.Background())
	if out.Restored == 0 {
		t.Fatalf("no partial restore: %+v", out)
	}
	if out.Restored >= acted {
		t.Fatalf("restored all %d racks despite limited headroom", acted)
	}
	// Full recovery: the rest comes back.
	h.feed([]power.Watts{60 * power.KW, 60 * power.KW, 60 * power.KW, 60 * power.KW})
	out = c.StepContext(context.Background())
	if len(c.ActedRacks()) != 0 {
		t.Fatalf("racks still acted after full recovery: %v", c.ActedRacks())
	}
}

func TestControllerRestoresThrottledBeforeShutdown(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")
	h.feed([]power.Watts{0, 112 * power.KW, 112 * power.KW, 112 * power.KW})
	out := c.StepContext(context.Background())
	var hasShut, hasThrottle bool
	for _, a := range out.Planned {
		if a.Kind == Shutdown {
			hasShut = true
		} else {
			hasThrottle = true
		}
	}
	if !hasShut || !hasThrottle {
		t.Skipf("need both kinds for this test, got planned=%v", out.Planned)
	}
	shutPlanned := 0
	for _, a := range out.Planned {
		if a.Kind == Shutdown {
			shutPlanned++
		}
	}
	// Tiny headroom: throttled racks must be restored before any shut
	// rack comes back (lifting a cap is cheaper than a restart).
	h.feed([]power.Watts{95 * power.KW, 95 * power.KW, 95 * power.KW, 95 * power.KW})
	out = c.StepContext(context.Background())
	if out.Restored == 0 {
		t.Skip("no headroom for any restore at this load")
	}
	remainingThrottles, remainingShut := 0, 0
	for _, id := range c.ActedRacks() {
		st, _, _ := h.mgr.State(id)
		switch st {
		case rackmgr.Throttled:
			remainingThrottles++
		case rackmgr.Off:
			remainingShut++
		}
	}
	if remainingThrottles > 0 && remainingShut < shutPlanned {
		t.Fatalf("a shut rack was restored while %d throttled racks remain", remainingThrottles)
	}
}

func TestControllerUsesEstimatorWhenConfigured(t *testing.T) {
	h := newHarness(t)
	est := telemetry.NewEWMAEstimator(0.5)
	c := New(Config{
		Name: "ctl-est", Clock: h.clk, Topo: h.topo, Racks: h.racks,
		UPSView: h.upsView, RackView: h.rackView,
		RackEstimator: est,
		Actuator:      h.mgr, Scenario: impact.Realistic1(), Buffer: power.KW,
	})
	// Feed the estimator a noisy history per rack; the raw view stays
	// empty, proving the plan used the estimator (missing raw data would
	// otherwise fall back to allocated power — same actions but different
	// recovered estimates).
	base := h.clk.Now()
	for i := 0; i < 5; i++ {
		for _, r := range h.racks {
			noise := power.Watts(0)
			if i%2 == 0 {
				noise = 2 * power.KW
			}
			est.Update(telemetry.Sample{
				Device: r.ID, Power: 9*power.KW + noise, Valid: true,
				MeasuredAt: base.Add(time.Duration(i) * time.Second),
			})
		}
	}
	h.now = base.Add(10 * time.Second)
	for u, w := range []power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW} {
		h.upsView.Update(telemetry.Sample{
			Device: h.topo.UPSes[u].Name, Power: w, Valid: true, MeasuredAt: h.now,
		})
	}
	out := c.StepContext(context.Background())
	if !out.Overdraw || out.Enforced == 0 {
		t.Fatalf("estimator-backed controller did not act: %+v", out)
	}
	// Recovered estimates must come from the conservative lower bound:
	// below the EWMA mean (≈10kW) for every shutdown.
	for _, a := range out.Planned {
		if a.Kind == Shutdown && a.Recovered >= 10*power.KW {
			t.Fatalf("recovered %v not conservative (mean ≈10kW)", a.Recovered)
		}
	}
}
