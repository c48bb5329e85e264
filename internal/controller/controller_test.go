package controller

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/impact"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// harness wires views and an actuator for a test room.
type harness struct {
	topo     *power.Topology
	racks    []ManagedRack
	upsView  *telemetry.LatestPower
	rackView *telemetry.LatestPower
	mgr      *rackmgr.Manager
	clk      *clock.Virtual
	now      time.Time // when the last feed was measured
	// stamp, when set, completes the ingest timeline of a UPS sample feed
	// is about to install and returns the instant it was dequeued at.
	stamp func(*telemetry.Sample) (dequeuedAt time.Time)
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

// feed moves the clock on a second and publishes UPS and rack power into the
// views, measured at the clock's new time: a controller stepped after a feed
// reads a reading as old as the clock says, so one step's actions postdate
// the reading it planned from.
func (h *harness) feed(ups []power.Watts) {
	h.clk.Advance(time.Second)
	h.now = h.clk.Now()
	for u, w := range ups {
		s := telemetry.Sample{Device: h.topo.UPSes[u].Name, Power: w, Valid: true, MeasuredAt: h.now}
		if h.stamp == nil {
			h.upsView.Update(s)
			continue
		}
		h.upsView.UpdateBatch([]telemetry.Sample{s}, h.stamp(&s))
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

// shedRacks lists the racks the rack manager's record holds.
func (h *harness) shedRacks() []string {
	record, _ := h.mgr.Record()
	ids := make([]string, len(record))
	for i, e := range record {
		ids[i] = e.Rack
	}
	return ids
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
	if len(h.shedRacks()) != out.Enforced {
		t.Fatalf("acted bookkeeping: %d vs %d", len(h.shedRacks()), out.Enforced)
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
	if len(h.shedRacks()) != 0 {
		t.Fatalf("acted racks remain: %v", h.shedRacks())
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
	if len(h.shedRacks()) == 0 {
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
	if acted := h.shedRacks(); len(acted) != 0 {
		t.Errorf("racks still acted on after recovery: %v", acted)
	}
	for _, r := range h.racks {
		if st, _, _ := h.mgr.State(r.ID); st != rackmgr.On {
			t.Errorf("rack %s = %v after recovery, want On", r.ID, st)
		}
	}
}

// TestRestoreOntoShedPair: recovery returns each rack's power to the
// PDU-pair it was shed from, whatever order Config.Racks lists the racks in,
// and also when an ID is listed twice, on two pairs, and only the second
// entry can be shed. The recovery feed leaves every UPS exactly the room the
// halves of its shed racks take back, so a rack projected onto any other
// pair would push some UPS over its limit and stay shed.
func TestRestoreOntoShedPair(t *testing.T) {
	topo := testRoom(t)
	pairOf := func(a, b power.UPSID) power.PDUPairID {
		for _, p := range topo.Pairs {
			if p.UPSes == [2]power.UPSID{a, b} || p.UPSes == [2]power.UPSID{b, a} {
				return p.ID
			}
		}
		t.Fatalf("no pair on UPSes %d and %d", a, b)
		return 0
	}
	reversed := testRacks(topo)
	slices.Reverse(reversed)
	kw := func(ws ...power.Watts) []power.Watts {
		for i := range ws {
			ws[i] *= power.KW
		}
		return ws
	}
	for _, tc := range []struct {
		name  string
		racks []ManagedRack
		ups   []power.Watts // the overdraw: UPS 0 has failed
		// shedFrom names the pair of a rack whose ID is listed twice.
		shedFrom map[string]power.PDUPairID
	}{
		{"racks not in ID order", reversed, kw(0, 107, 106, 107), nil},
		{"a duplicated ID", []ManagedRack{
			{ID: "dup", Workload: "gpucluster", Category: workload.NonRedundantNonCapable,
				Pair: pairOf(2, 3), Allocated: 10 * power.KW, FlexPower: 10 * power.KW},
			{ID: "dup", Workload: "websearch", Category: workload.SoftwareRedundant,
				Pair: pairOf(0, 1), Allocated: 10 * power.KW},
		}, kw(0, 104, 90, 90), map[string]power.PDUPairID{"dup": pairOf(0, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			h.racks = tc.racks
			ids := make([]string, len(tc.racks))
			for i, r := range tc.racks {
				ids[i] = r.ID
			}
			h.mgr = rackmgr.NewManager(h.clk, ids)
			c := h.controller("ctl-1")
			h.feed(tc.ups)
			out := c.StepContext(context.Background())
			if out.Enforced == 0 || out.Enforced != len(out.Planned) {
				t.Fatalf("enforced %d of %d planned", out.Enforced, len(out.Planned))
			}
			recovery := make([]power.Watts, len(topo.UPSes))
			for u := range recovery {
				recovery[u] = topo.UPSes[u].Capacity - power.KW // the harness's buffer
			}
			wa, wb := power.PairShare(false, false)
			for _, a := range out.Planned {
				want, ok := tc.shedFrom[a.Rack]
				if !ok {
					i := slices.IndexFunc(tc.racks, func(r ManagedRack) bool { return r.ID == a.Rack })
					want = tc.racks[i].Pair
				}
				if a.Pair != want {
					t.Errorf("%s planned on pair %d, shed from %d", a.Rack, a.Pair, want)
				}
				p := topo.Pairs[want]
				recovery[p.UPSes[0]] -= power.Watts(wa) * a.Recovered
				recovery[p.UPSes[1]] -= power.Watts(wb) * a.Recovered
			}
			h.feed(recovery)
			if rec := c.StepContext(context.Background()); rec.Overdraw || rec.Restored != out.Enforced {
				t.Fatalf("recovery round %+v, want all %d shed racks restored", rec, out.Enforced)
			}
			if acted := h.shedRacks(); len(acted) != 0 {
				t.Errorf("racks still acted on after recovery: %v", acted)
			}
		})
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

// TestMultiPrimaryControllersConverge: two primaries step on one snapshot.
// The first plans and enforces; the second reads the rack manager's record,
// finds it changed no earlier than the reading was taken, and defers to
// fresh telemetry rather than planning again. The record holds the first
// primary's plan, rack for rack, with the pair and watts it planned.
func TestMultiPrimaryControllersConverge(t *testing.T) {
	h := newHarness(t)
	c1 := h.controller("ctl-1")
	c2 := h.controller("ctl-2")
	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	out1 := c1.StepContext(context.Background())
	out2 := c2.StepContext(context.Background()) // same snapshot, now stale
	if out1.Enforced == 0 || out1.EnforceErrors != 0 || out1.Enforced != len(out1.Planned) {
		t.Fatalf("first primary: %+v, want its whole plan enforced", out1)
	}
	if !out2.Overdraw || out2.Planned != nil || out2.Enforced != 0 || out2.EnforceErrors != 0 {
		t.Fatalf("second primary: %+v, want a stale-skip that enforces nothing", out2)
	}
	record, _ := h.mgr.Record()
	want := slices.Clone(out1.Planned)
	slices.SortFunc(want, func(a, b PlannedAction) int { return strings.Compare(a.Rack, b.Rack) })
	if len(record) != len(want) {
		t.Fatalf("record holds %d racks, the first primary planned %d", len(record), len(want))
	}
	for i, e := range record {
		a := want[i]
		state := rackmgr.Off
		if a.Kind == Throttle {
			state = rackmgr.Throttled
		}
		if e != (rackmgr.Entry{Rack: a.Rack, State: state, Pair: a.Pair, Recovered: a.Recovered, At: h.now}) {
			t.Errorf("record entry %+v, the first primary planned %+v", e, a)
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
	if len(h.shedRacks()) != 0 {
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
	acted := len(h.shedRacks())
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
	if len(h.shedRacks()) != 0 {
		t.Fatalf("racks still acted after full recovery: %v", h.shedRacks())
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
	for _, id := range h.shedRacks() {
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

// TestRestartedPrimaryRestores: primary a sheds, primary b then steps on
// telemetry that shows the shed, and one of the two restarts — a fresh New
// with the same config, remembering nothing. When the failed UPS returns and
// both step five times, every shed rack is back On, whichever of them
// restarted: what is shed is the rack manager's record, not a primary's.
func TestRestartedPrimaryRestores(t *testing.T) {
	for _, restarted := range []string{"a", "b"} {
		t.Run(restarted+" restarts", func(t *testing.T) {
			h := newHarness(t)
			ctx := context.Background()
			ctls := map[string]*Controller{"a": h.controller("a"), "b": h.controller("b")}
			h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
			if out := ctls["a"].StepContext(ctx); out.Enforced == 0 {
				t.Fatalf("a shed nothing: %+v", out)
			}
			shed := len(h.shedRacks())
			h.feed([]power.Watts{0, 95 * power.KW, 95 * power.KW, 95 * power.KW})
			if out := ctls["b"].StepContext(ctx); out.Overdraw || out.Enforced != 0 || out.Restored != 0 {
				t.Fatalf("b acted on telemetry that shows the shed: %+v", out)
			}
			ctls[restarted] = h.controller(restarted)
			h.feed([]power.Watts{60 * power.KW, 60 * power.KW, 60 * power.KW, 60 * power.KW})
			for i := 0; i < 5; i++ {
				ctls["a"].StepContext(ctx)
				ctls["b"].StepContext(ctx)
			}
			if left := h.shedRacks(); len(left) != 0 {
				t.Fatalf("%d of %d shed racks still shed after the UPS returned: %v", len(left), shed, left)
			}
			for _, r := range h.racks {
				if st, _, _ := h.mgr.State(r.ID); st != rackmgr.On {
					t.Errorf("rack %s = %v after recovery, want On", r.ID, st)
				}
			}
		})
	}
}

// TestRestoreWaitsForFreshReading: after a large shed, one reading with some
// headroom sizes one restore. Stepping again on that reading restores
// nothing more — it does not show the power the first restore brought back,
// so projecting from it again would restore into headroom already spent —
// until a newer reading lands.
func TestRestoreWaitsForFreshReading(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-1")
	ctx := context.Background()
	h.feed([]power.Watts{0, 115 * power.KW, 115 * power.KW, 115 * power.KW})
	shed := c.StepContext(ctx).Enforced
	if shed < 3 {
		t.Fatalf("setup: only %d actions", shed)
	}
	h.feed([]power.Watts{92 * power.KW, 92 * power.KW, 92 * power.KW, 92 * power.KW})
	first := c.StepContext(ctx).Restored
	if first == 0 || first >= shed {
		t.Fatalf("the first reading with headroom restored %d of %d racks, want some but not all", first, shed)
	}
	for i := 0; i < 2; i++ {
		if out := c.StepContext(ctx); out.Restored != 0 {
			t.Fatalf("step %d on the same reading restored %d more racks after %d", i+2, out.Restored, first)
		}
	}
	if left := len(h.shedRacks()); left != shed-first {
		t.Fatalf("%d racks shed, want %d", left, shed-first)
	}
	h.feed([]power.Watts{60 * power.KW, 60 * power.KW, 60 * power.KW, 60 * power.KW})
	if out := c.StepContext(ctx); out.Restored != shed-first {
		t.Fatalf("the newer reading restored %d racks, want the %d left", out.Restored, shed-first)
	}
}

// TestPrimariesShareRecord steps two primaries concurrently on one rack
// manager through an overdraw and a recovery (run it under -race) while an
// auditor-style reader keeps reading the record and holding the list it was
// handed. A held list never changes under its reader; after the overdraw
// the record holds exactly the racks that are not On, each in its state;
// after the recovery it is empty and every rack is On.
func TestPrimariesShareRecord(t *testing.T) {
	h := newHarness(t)
	ctls := []*Controller{h.controller("ctl-1"), h.controller("ctl-2")}
	ctx := context.Background()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			held, _ := h.mgr.Record()
			kept := slices.Clone(held)
			h.mgr.Record()
			if !slices.Equal(held, kept) {
				t.Errorf("a list handed out changed under its reader: %+v, was %+v", held, kept)
				return
			}
		}
	}()
	steps := func(rounds int) {
		var wg sync.WaitGroup
		for _, c := range ctls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if out := c.StepContext(ctx); out.EnforceErrors != 0 {
						t.Errorf("%+v", out)
					}
				}
			}()
		}
		wg.Wait()
	}

	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	steps(20)
	record, _ := h.mgr.Record()
	if len(record) == 0 {
		t.Fatal("neither primary shed")
	}
	inRecord := map[string]rackmgr.PowerState{}
	for _, e := range record {
		inRecord[e.Rack] = e.State
	}
	for _, r := range h.racks {
		st, _, _ := h.mgr.State(r.ID)
		if got, ok := inRecord[r.ID]; ok != (st != rackmgr.On) || ok && got != st {
			t.Errorf("rack %s is %v, the record holds it %v (%v)", r.ID, st, ok, got)
		}
	}

	h.feed([]power.Watts{60 * power.KW, 60 * power.KW, 60 * power.KW, 60 * power.KW})
	steps(20)
	close(stop)
	reader.Wait()
	if left := h.shedRacks(); len(left) != 0 {
		t.Errorf("racks still shed after recovery: %v", left)
	}
	for _, r := range h.racks {
		if st, _, _ := h.mgr.State(r.ID); st != rackmgr.On {
			t.Errorf("rack %s = %v after recovery, want On", r.ID, st)
		}
	}
}
